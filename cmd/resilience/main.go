// Command resilience regenerates the experiment tables of EXPERIMENTS.md:
// the empirical validation of every formal claim in "Computational Aspects
// of Resilient Data Extraction from Semistructured Sources" (PODS 2000).
//
// Usage:
//
//	resilience                # run every experiment at the standard scale
//	resilience -quick         # smaller sweeps (seconds, for CI)
//	resilience -run E4,E8     # a subset
//	resilience -timeout 30s   # abandon any experiment that exceeds the deadline
//	resilience -max-states N  # cap automaton construction per experiment
//	resilience -metrics       # record phase counters; dump a snapshot on exit
//	resilience -bench-dir d   # write each table (with phase counters) to d/BENCH_<ID>.json
//	resilience -listen :8080  # serve /metrics, /metrics.json and /debug/pprof while running
//
// With -metrics (or -trace or -listen) every automaton construction runs
// under an observer: subset states, minimization passes, deadline polls and
// per-phase wall time land in a metrics registry, and per-experiment deltas
// land in the emitted tables.
//
// An id in -run that names no experiment is a usage error (exit 2): nothing
// runs, and the message lists the valid ids.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"resilex/internal/bench"
	"resilex/internal/machine"
	"resilex/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	seed := flag.Int64("seed", 1, "random seed for generated workloads")
	asJSON := flag.Bool("json", false, "emit tables as JSON instead of text")
	maxStates := flag.Int("max-states", 0, "state budget for automaton constructions (0 = default)")
	timeout := flag.Duration("timeout", 0, "deadline per experiment; exceeded experiments are reported and skipped (0 = none)")
	metrics := flag.Bool("metrics", false, "observe all constructions and dump the metric snapshot on exit")
	metricsFormat := flag.String("metrics-format", "json", "snapshot format: json (metrics + spans) or prometheus (text exposition)")
	metricsOut := flag.String("metrics-out", "", "write the metric snapshot to this file instead of stderr")
	trace := flag.Bool("trace", false, "dump the span tree of the run to stderr on exit")
	listen := flag.String("listen", "", "serve /metrics, /metrics.json and /debug/pprof on this address for the duration of the run")
	benchDir := flag.String("bench-dir", "", "write each experiment table (with phase counters) to <dir>/BENCH_<ID>.json")
	flag.Parse()

	type experiment struct {
		id string
		fn func() bench.Table
	}
	trials := 20
	if *quick {
		trials = 5
	}
	sizes := []int{4, 8, 16, 32, 64, 128}
	e4ns := []int{2, 4, 6, 8, 10, 12, 14, 16}
	e6ns := []int{0, 1, 2, 4, 8, 12, 16}
	e7ks := []int{1, 2, 3, 4, 5, 6}
	edits := []int{1, 2, 4, 6, 8}
	depths := []int{2, 3, 4, 5, 6}
	perEdit := 500
	e16docs := 2000
	e17trials := 9
	e18keys := 32
	e18window := 600 * time.Millisecond
	e18service := 10 * time.Millisecond
	e19reqs := 30
	e21iters := 50
	e22iters := 50
	if *quick {
		e16docs = 300
		e21iters = 10
		e22iters = 10
		e17trials = 3
		e18keys = 12
		e18window = 250 * time.Millisecond
		e18service = 5 * time.Millisecond
		e19reqs = 10
		sizes = sizes[:4]
		e4ns = e4ns[:5]
		e6ns = e6ns[:5]
		e7ks = e7ks[:4]
		edits = edits[:3]
		depths = depths[:4]
		perEdit = 100
	}
	experiments := []experiment{
		{"E3", func() bench.Table { return bench.E3Ambiguity(sizes, trials, *seed) }},
		{"E4", func() bench.Table { return bench.E4Maximality(e4ns) }},
		{"E5", func() bench.Table { return bench.E5Nonunique() }},
		{"E6", func() bench.Table { return bench.E6LeftFilter(e6ns) }},
		{"E7", func() bench.Table { return bench.E7Pivot(e7ks) }},
		{"E8", func() bench.Table { return bench.E8Resilience(edits, perEdit, *seed) }},
		{"E8H", func() bench.Table { return bench.E8HTML(3, perEdit/2, *seed) }},
		{"E10", func() bench.Table { return bench.E10Factoring(depths, trials, *seed) }},
		{"E11", func() bench.Table { return bench.E11MiddleRow(2, []int{3, 5, 7, 9, 11}) }},
		{"E13", func() bench.Table { return bench.E13Tuple(perEdit, *seed) }},
		{"E14", func() bench.Table { return bench.E14Alphabet([]int{2, 3, 4, 6}, perEdit/2, *seed) }},
		{"E16", func() bench.Table { return bench.E16Throughput(e16docs, 0, *seed) }},
		{"E17", func() bench.Table { return bench.E17Persistence("", e17trials, *seed) }},
		{"E18", func() bench.Table { return bench.E18Cluster(e18keys, e18window, e18service) }},
		{"E19", func() bench.Table { return bench.E19Drift(e19reqs, 4, *seed) }},
		{"E20", func() bench.Table { return bench.E20TracingOverhead(e16docs*4, 0, *seed) }},
		{"E21", func() bench.Table { return bench.E21Streaming(e21iters) }},
		{"E22", func() bench.Table { return bench.E22Spanner(e22iters) }},
	}

	ids := make([]string, len(experiments))
	for i, ex := range experiments {
		ids[i] = ex.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*runIDs, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "resilience: -run: unknown experiment %s (valid: %s)\n", id, strings.Join(ids, " "))
			return 2
		}
		want[id] = true
	}

	// Any observability surface turns the observer on; -bench-dir needs it
	// for the phase counters it writes.
	var o *obs.Observer
	if *metrics || *trace || *listen != "" || *benchDir != "" {
		o = obs.New()
	}
	defer func() {
		if err := obs.Dump(o, *metrics, *trace, *metricsFormat, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "resilience:", err)
		}
	}()
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resilience:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "resilience: serving /metrics, /metrics.json, /debug/pprof on %s\n", ln.Addr())
		go http.Serve(ln, obs.Handler(o))
	}
	if *benchDir != "" {
		if err := os.MkdirAll(*benchDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "resilience:", err)
			return 1
		}
	}

	// runBounded runs one experiment under -timeout/-max-states with the
	// observer threaded into every construction context, and attaches the
	// experiment's phase-counter delta to its table. Workload generators
	// panic on construction errors they consider impossible; a deadline or
	// tight budget makes those reachable, so they are recovered here and
	// reported as an abandoned experiment instead of a crash.
	runBounded := func(fn func() bench.Table) (table bench.Table, err error) {
		opts := machine.Options{MaxStates: *maxStates}
		ctx := context.Background()
		if o != nil {
			ctx = obs.NewContext(ctx, o)
		}
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *timeout > 0 || o != nil {
			opts = opts.WithContext(ctx)
		}
		bench.DefaultOptions = opts
		bench.DefaultObserver = o
		var before obs.Snapshot
		if o != nil {
			before = o.Metrics.Snapshot()
		}
		defer func() {
			bench.DefaultOptions = machine.Options{}
			bench.DefaultObserver = nil
			if r := recover(); r != nil {
				err = fmt.Errorf("abandoned: %v", r)
			} else if o != nil {
				table.Phases = bench.PhaseDelta(before, o.Metrics.Snapshot())
			}
		}()
		return fn(), nil
	}

	ran := 0
	failed := 0
	enc := json.NewEncoder(os.Stdout)
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		table, err := runBounded(ex.fn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resilience: %s: %v\n", ex.id, err)
			failed++
			continue
		}
		if *asJSON {
			if err := enc.Encode(table); err != nil {
				fmt.Fprintln(os.Stderr, "resilience:", err)
				return 1
			}
		} else {
			fmt.Println(table.Format())
		}
		if *benchDir != "" {
			path, err := table.WriteJSON(*benchDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "resilience:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "resilience: wrote %s\n", path)
		}
		ran++
	}
	if failed > 0 && ran == 0 {
		return 1
	}
	return 0
}
