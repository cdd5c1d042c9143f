package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"resilex/internal/machine"
	"resilex/internal/obs"
)

// TestPhasesReachBenchJSON runs an experiment the way cmd/resilience
// -bench-dir does — its constructions observed through DefaultOptions — and
// checks the phase-counter delta lands in BENCH_<ID>.json and reads back.
func TestPhasesReachBenchJSON(t *testing.T) {
	o := obs.New()
	DefaultObserver = o
	DefaultOptions = machine.Options{}.WithContext(obs.NewContext(context.Background(), o))
	defer func() { DefaultObserver, DefaultOptions = nil, machine.Options{} }()

	table := E4Maximality([]int{2, 4})
	table.Phases = PhaseDelta(obs.Snapshot{}, o.Metrics.Snapshot())
	if table.Phases["machine_subset_states_total"] == 0 {
		t.Errorf("phase delta missing subset states: %v", table.Phases)
	}
	for name := range table.Phases {
		if !phaseCounter(name) {
			t.Errorf("non-phase counter leaked into delta: %s", name)
		}
	}
	path, err := table.WriteJSON(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_E4.json" {
		t.Errorf("path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "E4" || len(back.Rows) != 2 || back.Phases["machine_subset_states_total"] != table.Phases["machine_subset_states_total"] {
		t.Errorf("round-trip lost data: %+v", back)
	}
	if h := back.Host; h == nil || *h != thisHost() || h.GoVersion != runtime.Version() || h.GOMAXPROCS < 1 {
		t.Errorf("host stamp = %+v, want %+v", h, thisHost())
	}
}

// TestPhaseDeltaFilters: only phase counters survive, and unchanged ones
// are dropped.
func TestPhaseDeltaFilters(t *testing.T) {
	before := obs.Snapshot{Counters: map[string]int64{
		"machine_subset_states_total": 10,
	}}
	after := obs.Snapshot{Counters: map[string]int64{
		"machine_subset_states_total":   25,
		"machine_minimize_passes_total": 4,
		"extract_cache_hits_total":      2,
		"unrelated_total":               99,
	}}
	got := PhaseDelta(before, after)
	want := map[string]int64{
		"machine_subset_states_total":   15,
		"machine_minimize_passes_total": 4,
		"extract_cache_hits_total":      2,
	}
	if len(got) != len(want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("delta[%s] = %d, want %d", k, got[k], v)
		}
	}
}
