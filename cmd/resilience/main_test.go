package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the resilience binary:
// re-exec'ed with RESILIENCE_BE_MAIN=1 it runs main() instead of the tests,
// so the flag surface and exit codes are exercised exactly as shipped.
func TestMain(m *testing.M) {
	if os.Getenv("RESILIENCE_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runResilience(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RESILIENCE_BE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out.String(), errb.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), 0
}

// TestRunRejectsUnknownIDs: an id in -run that names no experiment — a typo
// or a retired experiment — is a usage error that runs nothing, even beside
// valid ids, and writes nothing; the message names it and lists the ids that
// exist.
func TestRunRejectsUnknownIDs(t *testing.T) {
	benchDir := filepath.Join(t.TempDir(), "bench")
	for _, c := range []struct{ run, unknown string }{
		{"E99,E16", "E99"},
		{"E15", "E15"},
		{"e5, x", "X"},
	} {
		stdout, stderr, code := runResilience(t, "-quick", "-bench-dir", benchDir, "-run", c.run)
		if _, err := os.Stat(benchDir); code != 2 || stdout != "" || !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("-run %s: exit %d, stdout %q, -bench-dir stat %v; want exit 2 and nothing run or written", c.run, code, stdout, err)
		}
		if !strings.Contains(stderr, "unknown experiment "+c.unknown) ||
			!strings.Contains(stderr, "valid: E3 E4 E5") || strings.Contains(stderr, "E14 E15") {
			t.Errorf("-run %s: stderr %q", c.run, stderr)
		}
	}
	// Ids are case-insensitive and trimmed.
	stdout, stderr, code := runResilience(t, "-quick", "-run", " e5 ")
	if code != 0 || !strings.HasPrefix(stdout, "E5 — ") {
		t.Errorf("-run ' e5 ': exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
