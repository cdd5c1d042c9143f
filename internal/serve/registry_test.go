package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilex/internal/obs"
)

// envelopeLines reads key's envelope file and splits it into its lines,
// failing unless the file ends in a newline.
func envelopeLines(t *testing.T, s *Server, key string) [][]byte {
	t.Helper()
	blob, err := os.ReadFile(s.registry.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(blob, []byte("\n")) {
		t.Fatalf("envelope of %q does not end in a newline: %q", key, blob)
	}
	return bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n"))
}

// TestRegistryRecordBound: a key's writes append to its file, which the
// write past maxRecords rewrites, so 24 writes of every kind never leave
// more than maxRecords lines, and a restart restores the newest.
func TestRegistryRecordBound(t *testing.T) {
	dir := t.TempDir()
	payload, next := trainedPayload(t), futurePayload(t)
	s := diskServer(t, dir, nil, obs.New())
	ctx := context.Background()
	writes := []func() error{
		func() error { _, err := s.PutWrapper(ctx, "vs", payload); return err },
		func() error { _, err := s.DeployCanary("vs", next); return err },
		func() error { return s.Promote("vs", 0) },
		func() error { return s.Rollback("vs", 0) },
		func() error { _, err := s.DeployCanary("vs", next); return err },
		func() error { return s.Rollback("vs", 0) },
	}
	for i := range 24 {
		if err := writes[i%len(writes)](); err != nil {
			t.Fatalf("write %d: %v", i+1, err)
		}
		if got, want := len(envelopeLines(t, s, "vs")), i%maxRecords+1; got != want {
			t.Fatalf("after write %d the envelope holds %d records, want %d", i+1, got, want)
		}
	}
	want, _ := s.VersionState("vs")
	if got, ok := diskServer(t, dir, nil, obs.New()).VersionState("vs"); !ok || got != want {
		t.Fatalf("restart restored %+v (known %v), want %+v", got, ok, want)
	}
}

// TestRegistryTornTailFallsBack: a newest record cut in half, as a crash
// mid-append leaves it, restores the record before it, and the key's next
// PUT numbers past that record's counter.
func TestRegistryTornTailFallsBack(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)
	s := diskServer(t, dir, nil, obs.New())
	for range 3 {
		if _, err := s.PutWrapper(context.Background(), "vs", payload); err != nil {
			t.Fatal(err)
		}
	}
	lines := envelopeLines(t, s, "vs")
	torn := append(bytes.Join(lines[:2], []byte("\n")), '\n')
	torn = append(torn, lines[2][:len(lines[2])/2]...)
	if err := os.WriteFile(s.registry.path("vs"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s = diskServer(t, dir, nil, obs.New())
	if got, want := mustVersionState(t, s, "vs"), (VersionState{LastVersion: 2, Active: 2, Prior: 1}); got != want {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
	if v, err := s.PutWrapper(context.Background(), "vs", payload); err != nil || v != 3 {
		t.Fatalf("next PUT = version %d (%v), want 3", v, err)
	}
}

// TestRegistryRestartRewrites: a key's first write after a restart rewrites
// its file, so a torn tail an earlier process left is gone and the file is
// one JSON document again.
func TestRegistryRestartRewrites(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)
	s := diskServer(t, dir, nil, obs.New())
	for range 2 {
		if _, err := s.PutWrapper(context.Background(), "vs", payload); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(s.registry.path("vs"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"vs","lastVersion":3,"act`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = diskServer(t, dir, nil, obs.New())
	if v, err := s.PutWrapper(context.Background(), "vs", payload); err != nil || v != 3 {
		t.Fatalf("first PUT after the restart = version %d (%v), want 3", v, err)
	}
	if n := len(envelopeLines(t, s, "vs")); n != 1 {
		t.Fatalf("rewritten envelope holds %d lines, want 1", n)
	}
	blob, err := os.ReadFile(s.registry.path("vs"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(blob, &rec); err != nil || rec.LastVersion != 3 || rec.Active.Version != 3 {
		t.Fatalf("rewritten envelope decodes to %+v (%v), want version 3 active", rec, err)
	}
}

// TestRegistryRemovedFileRecreated: a write to a key whose file is gone
// cannot append, so it rewrites the file and still reports persisted.
func TestRegistryRemovedFileRecreated(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)
	s := diskServer(t, dir, nil, obs.New())
	for range 2 {
		if _, err := s.PutWrapper(context.Background(), "vs", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(s.registry.path("vs")); err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "PUT", "/wrappers/vs", payload)
	var put struct {
		Persisted bool   `json:"persisted"`
		Version   uint64 `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &put); rec.Code != http.StatusCreated || err != nil || !put.Persisted || put.Version != 3 {
		t.Fatalf("PUT after removal: status %d: %s", rec.Code, rec.Body)
	}
	if n := len(envelopeLines(t, s, "vs")); n != 1 {
		t.Fatalf("recreated envelope holds %d lines, want 1", n)
	}
	s = diskServer(t, dir, nil, obs.New())
	if got, want := mustVersionState(t, s, "vs"), (VersionState{LastVersion: 3, Active: 3, Prior: 2}); got != want {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
}

// TestRegistryReadsNewestFromTail: read finds the newest intact record in
// the file's last tailWindow bytes, and reads the whole file when they hold
// none — a newest record longer than the window, a torn newest line after
// a long record, a one-line file from an earlier build. A line that the
// window cuts is never decoded from the cut, even when its tail is a
// keyed record.
func TestRegistryReadsNewestFromTail(t *testing.T) {
	r, err := newWrapperRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	line := func(version uint64, pad int) string {
		blob, err := json.Marshal(record{Key: "vs", LastVersion: version,
			Active: &versionedWrapper{Version: version, Payload: json.RawMessage(`"` + strings.Repeat("p", pad) + `"`)}})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob) + "\n"
	}
	var small strings.Builder
	for v := range uint64(12) {
		small.WriteString(line(v+1, 40))
	}
	torn := line(3, 100)[:60]
	cutHead := `{"key":"vs","lastVersion":99,"lastOutcome":"`
	cutTail := cutHead + strings.Repeat("o", tailWindow-len(torn)-len(cutHead)-3) + "\"}\n"
	for _, c := range []struct {
		name, file string
		want       uint64 // 0: no intact record
	}{
		{"small records past the window", small.String(), 12},
		{"newest longer than the window", line(1, 0) + line(2, 2*tailWindow), 2},
		{"torn after a long record", line(1, 2*tailWindow) + line(2, 0)[:30], 1},
		{"one-line file from an earlier build", `{"key":"vs","wrapper":"` + strings.Repeat("p", 2*tailWindow) + `"}`, 1},
		{"cut line whose tail is a record", line(1, 0) + strings.Repeat("x", tailWindow) + cutTail + torn, 1},
		{"no intact line", "torn\n" + `{"key":""}` + "\n", 0},
	} {
		if len(c.file) <= tailWindow && c.want != 0 {
			t.Fatalf("%s: a %d-byte file fits the window", c.name, len(c.file))
		}
		if err := os.WriteFile(r.path("vs"), []byte(c.file), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := r.read(filepath.Base(r.path("vs")))
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("%s: read %+v, want an error", c.name, rec)
		case c.want != 0 && (err != nil || rec.LastVersion != c.want || rec.Active.version() != c.want):
			t.Errorf("%s: read version %d (%v), want %d", c.name, rec.LastVersion, err, c.want)
		}
	}
}

func mustVersionState(t *testing.T, s *Server, key string) VersionState {
	t.Helper()
	vs, ok := s.VersionState(key)
	if !ok {
		t.Fatalf("%s: no versions recorded", key)
	}
	return vs
}
