package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	wide := []float64{70, 130, 85, 115, 100, 60, 140, 95, 105, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
	}{
		{"same runs", tight, tight, false, 0.05, noWorse},
		{"within the bound", tight, scaled(tight, 1.03), false, 0.05, noWorse},
		{"worse beyond the bound", tight, scaled(tight, 1.2), false, 0.05, regressed},
		{"higher is better, lower now", tight, scaled(tight, 0.8), true, 0.05, regressed},
		{"better in every pair", tight, scaled(tight, 0.8), false, 0.05, improved},
		{"higher is better, higher now", tight, scaled(tight, 1.25), true, 0.05, improved},
		{"spread wider than the bound", wide, scaled(wide, 1.2), false, 0.1, unresolved},
		{"wide but every change run better", []float64{100, 110, 120, 130}, []float64{50, 52, 54, 56}, false, 0.1, improved},
		{"every run better, gap inside the IQR", []float64{10, 11, 12, 13}, []float64{9.9, 9.95, 9.97, 9.99}, false, 0.05, noWorse},
		{"eight of ten pairs is no gain", tight, append(scaled(tight[:8], 0.8), tight[8]*1.01, tight[9]*1.01), false, 0.5, noWorse},
		{"unbounded, no gain", tight, tight, false, -1, noBound},
		{"unbounded gain", tight, scaled(tight, 0.5), false, -1, improved},
		{"no change runs", tight, nil, false, 0.05, unresolved},
	} {
		if got := verdict(tc.parent, tc.change, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	bound := 0.05
	sp := spec{EndToEnd: []specMetric{{Name: "docs_per_s", Unit: "1/s", Better: "higher", Bound: &bound}}}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("BENCHMARK.json", sp)
	run := func(name string, v float64, failed int) string {
		return write(name, runResult{Workload: "w", Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"docs_per_s": {Value: v, Unit: "1/s"}}})
	}
	p := []string{run("p1", 100, 0), run("p2", 101, 0), run("p3", 99, 0)}
	same := []string{run("c1", 100.5, 0), run("c2", 99.5, 0), run("c3", 100, 0)}
	slow := []string{run("s1", 80, 0), run("s2", 81, 0), run("s3", 79, 0)}
	failing := []string{run("f1", 100, 1), run("f2", 100, 0), run("f3", 100, 0)}
	for _, tc := range []struct {
		name   string
		change []string
		code   int
		verb   string
	}{
		{"same commit", same, 0, noWorse},
		{"slower", slow, 1, regressed},
		{"more failures", failing, 1, regressed},
	} {
		var out bytes.Buffer
		args := append(append(append([]string{"-spec", specPath}, p...), "--"), tc.change...)
		if code := compareMain(args, &out); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.verb) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.verb, out.String())
		}
	}
	if code := compareMain([]string{"-spec", specPath, p[0]}, &bytes.Buffer{}); code != 2 {
		t.Errorf("compare without -- exited %d, want 2", code)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		spec
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || rates[w.Name] == 0 {
			t.Errorf("workload %d: %q (why %q), want %q with a reason and a rate", i, w.Name, w.Why, workloadNames[i])
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %s [%s, %s], want %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	for _, m := range doc.EndToEnd {
		if m.Name != "setup_s" && *m.Bound > *doc.EndToEnd[0].Bound {
			t.Errorf("%s's bound %g exceeds setup_s's %g; setup_s must have the largest", m.Name, *m.Bound, *doc.EndToEnd[0].Bound)
		}
	}
}
