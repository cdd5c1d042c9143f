package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for about a second against a freshly built
// cmd/serve, traced, so both the HTTP phases and the in-process replay run.
// A second is too short for the per-window latency guards, so the metrics
// that rest on them may be absent; everything else must be there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots cmd/serve")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "serve")
	if err := buildServe(root, bin); err != nil {
		t.Fatal(err)
	}
	env := stamp(root)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			b := &bench{root: root, out: out, seconds: 1, trace: true, seed: 3, serveBin: bin, env: &env}
			res, err := b.run(name)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d/%d: %v", res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			guarded := map[string]bool{"gen.late_p99_ms": true, "gen.open_p99_ms": true, "gen.closed_p99_ms": true, "serve.wait_frac": true}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok && !guarded[d.name] {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, name := range []string{"setup_s", "docs_per_s", "cpu_ms_per_doc", "peak_rss_mb"} {
				if m, ok := res.Extra[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}
			if f := res.Metrics["recon.stage_frac"].Value; f <= 0 || f > 2 {
				t.Errorf("recon.stage_frac = %g, want a share of the handler time", f)
			}
			f, err := os.Open(filepath.Join(out, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			n := 0
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %d: %v", n, err)
				}
				if s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
					t.Fatalf("span %+v has inconsistent times", s)
				}
				n++
			}
			if n == 0 {
				t.Error("no spans written")
			}
		})
	}
}
