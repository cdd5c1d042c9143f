package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"resilex/internal/obs"
)

// DefaultObserver, when set (cmd/resilience -metrics / -trace / -listen), is
// the observer the experiments record into: DefaultOptions carries it into
// every machine construction. nil keeps the harness unobserved.
var DefaultObserver *obs.Observer

// PhaseDelta returns the phase-counter deltas between two registry
// snapshots — what one experiment cost in subset states explored,
// minimization passes, deadline polls, maximization rounds, cache hits,
// and so on. The result goes into the Table's Phases field and from there
// into the BENCH_*.json perf trajectory.
func PhaseDelta(before, after obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range after.Counters {
		if !phaseCounter(name) {
			continue
		}
		if d := v - before.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// phaseCounter reports whether a registry counter belongs to the
// construction/extraction phase families the harness tracks.
func phaseCounter(name string) bool {
	for _, p := range []string{"machine_", "extract_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Host describes where a table was measured: the toolchain, the platform,
// the CPU model and how many threads Go ran on. Numbers from tables with
// different hosts are not one trajectory.
type Host struct {
	GoVersion  string
	GOOS       string
	GOARCH     string
	CPU        string // the first "model name" in /proc/cpuinfo; empty elsewhere
	GOMAXPROCS int
}

// thisHost describes the running process's host.
func thisHost() Host {
	h := Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	return h
}

// WriteJSON writes the table — rows plus phase counters, stamped with
// thisHost — to dir/BENCH_<ID>.json and returns the path.
func (t Table) WriteJSON(dir string) (string, error) {
	path := filepath.Join(dir, "BENCH_"+strings.ToUpper(t.ID)+".json")
	host := thisHost()
	t.Host = &host
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// contextWithObserver threads DefaultObserver into the experiment context so
// construction phases attribute to the same registry.
func contextWithObserver() context.Context {
	if DefaultObserver == nil {
		return context.Background()
	}
	return obs.NewContext(context.Background(), DefaultObserver)
}
