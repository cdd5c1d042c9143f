// Command benchmark is the serving benchmark of cmd/serve: it builds the
// server, boots it as a child process on a loopback port, drives one of four
// seeded HTTP workloads against it, checks every response against a
// reference oracle, and reports end-to-end metrics. With -trace 1 it also
// replays the same inputs in-process through each layer's public functions
// and reports per-layer metrics. See README.md.
//
//	benchmark -workload batch-small -seed 1 -seconds 24 -trace 0
//	benchmark -seed 1                      # every workload in turn
//	benchmark compare <parent results…> -- <change results…>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. The full result, with its environment stamp and
// sample counts, is written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 24, "measured seconds per run, split evenly between the open and the closed loop")
	trace := fs.Int("trace", 0, "1 = also replay in-process and report per-layer metrics instead of end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result, trace and server log files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	} else if rates[*name] == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v, or all)\n", *name, workloadNames)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b := &bench{root: root, out: *out, seconds: *seconds, trace: *trace == 1, seed: *seed}
	stopOnSignal()
	code := 0
	for _, n := range names {
		res, err := b.run(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		res.print(os.Stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// repoRoot finds the repository the benchmark measures: the nearest
// directory at or above the working directory that holds cmd/serve.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/serve at or above the working directory")
		}
		dir = parent
	}
}

// live tracks running servers so a signal can stop them before exiting.
var live = struct {
	sync.Mutex
	set map[*child]bool
}{set: map[*child]bool{}}

func track(c *child, on bool) {
	live.Lock()
	defer live.Unlock()
	if on {
		live.set[c] = true
	} else {
		delete(live.set, c)
	}
}

func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		live.Lock()
		for c := range live.set {
			c.stop() //nolint:errcheck // exiting anyway
		}
		os.Exit(1)
	}()
}

// bench holds one invocation's settings and the built server binary.
type bench struct {
	root, out string
	seconds   float64
	trace     bool
	seed      int64
	serveBin  string
	env       *envStamp
}

// runResult is everything one run reports; the result file is its JSON.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Rate       float64                `json:"open_loop_rate"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Errors     []string               `json:"errors,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Extra      map[string]metricValue `json:"extra,omitempty"`
	Windows    []windowStats          `json:"windows"`
	Boots      []bootSample           `json:"boots"`
	GenSeconds float64                `json:"gen_seconds"`
	Env        envStamp               `json:"env"`
	Started    time.Time              `json:"started"`
}

func (b *bench) run(name string) (*runResult, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	if b.serveBin == "" {
		bin, err := filepath.Abs(filepath.Join(b.root, ".bench_build", "bin", "serve"))
		if err != nil {
			return nil, err
		}
		if err := buildServe(b.root, bin); err != nil {
			return nil, err
		}
		b.serveBin = bin
		e := stamp(b.root)
		b.env = &e
	}
	res := &runResult{Workload: name, Seed: b.seed, Seconds: b.seconds, Trace: b.trace, Env: *b.env, Started: time.Now().UTC()}
	openLen, closedLen := phaseLengths(b.seconds)
	t0 := time.Now()
	w, err := generate(name, b.seed, openLen)
	if err != nil {
		return nil, err
	}
	res.GenSeconds = time.Since(t0).Seconds()
	res.Rate = w.rate

	h, err := b.runHTTP(w, openLen, closedLen)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Errors = h.attempted, h.failed, h.errors
	res.Windows, res.Boots = h.windowStats(), h.boots
	res.FailedFrac = float64(h.failed) / float64(max(h.attempted, 1))
	res.Correct = h.failed == 0
	e2e := h.endToEnd()
	if !b.trace {
		res.Metrics = e2e
	} else {
		layers, err := b.replay(w, h)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		res.Extra = e2e
	}
	path := filepath.Join(b.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, b.seed, boolInt(b.trace)))
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes one line per metric — name, value, unit, sample count — and
// then the summary JSON line.
func (r *runResult) print(w io.Writer) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v rate=%g/s attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Rate, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# error: %s\n", e)
	}
	summary := map[string]map[string]any{}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14s %-6s (not reported: too few samples)\n", d.name, "-", d.unit)
			continue
		}
		fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d %s\n", d.name, m.Value, d.unit, m.Samples, m.Note)
		summary[d.name] = map[string]any{"value": m.Value, "unit": d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, summary})
	fmt.Fprintln(w, string(line))
}

// httpRun is what the HTTP phases measured, as measured; the speed factors
// beside the timings scale them to the reference speed (see speed.go).
type httpRun struct {
	w       *workload
	speed   *speedProbe
	boots   []bootSample
	windows []window
	late    []time.Duration // per open-loop arrival: dispatch time minus due time
	rssMB   float64
	// counters are the measured server's counters at the end.
	counters map[string]int64

	attempted, failed int
	errors            []string
}

// bootSample is one timed boot: exec to ready, the latencies of its
// registrations, and the speed factor and steal over its group of boots.
type bootSample struct {
	Seconds float64   `json:"seconds"`
	PutsMs  []float64 `json:"puts_ms,omitempty"`
	Speed   float64   `json:"speed"`
	Steal   float64   `json:"steal"`
}

// window is one open-loop window and the closed-loop window after it, with
// the speed factor and the stolen share of the host's CPU time measured
// during each. The latencies are filled in by tally, in ms at the reference
// speed.
type window struct {
	open, closed           []result
	openSpeed, closedSpeed float64
	openSteal, closedSteal float64
	elapsed                time.Duration // of the closed window
	ticks                  int64         // server CPU over the closed window

	openReads, closedReads, closedWrites []float64
	docs                                 int // documents the closed window extracted
}

// probeBoots is how many probe servers are booted and timed after each
// window pair.
const probeBoots = 5

// runHTTP measures w over HTTP. The measured server is booted, registered
// and warmed up, then runs the window pairs; after each pair probeBoots
// probe servers are booted, timed from exec to ready and stopped while the
// measured one idles, so the samples behind setup_s (and the boot-time
// registration latencies) spread over the whole run.
func (b *bench) runHTTP(w *workload, openLen, closedLen time.Duration) (*httpRun, error) {
	conns := runtime.NumCPU()
	logPath := filepath.Join(b.out, "serve-"+w.name+".log")
	os.Remove(logPath)
	args := append([]string(nil), w.serveArgs...)
	if w.cacheDir {
		dir, err := os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "cache-"+w.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		args = append(args, "-cache-dir", dir)
	}
	c := newClient(conns)
	c.withRegistry = w.cacheDir
	boot := func() (*child, error) {
		ch, err := startServe(b.serveBin, args, logPath)
		if err != nil {
			return nil, err
		}
		track(ch, true)
		return ch, nil
	}
	stop := func(ch *child) error {
		err := ch.stop()
		track(ch, false)
		return err
	}
	h := &httpRun{w: w, speed: startProbe()}
	defer h.speed.close()

	if len(w.preload) > 0 {
		ch, err := boot()
		if err != nil {
			return nil, err
		}
		c.base = ch.base
		res, err := sendAll(c, putOps(w.preload))
		if err == nil {
			w.baseVersion = map[string]uint64{}
			for _, r := range res {
				w.baseVersion[r.op.key] = r.version
			}
		}
		if serr := stop(ch); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("preload boot: %w", err)
		}
	}

	// ready boots a server, registers the workload's wrappers and warms
	// every key up; cl is pointed at the server.
	ready := func(cl *client) (*child, []result, error) {
		ch, err := boot()
		if err != nil {
			return nil, nil, err
		}
		cl.base = ch.base
		regs, err := sendAll(cl, putOps(w.regs))
		if err == nil {
			_, err = sendAll(cl, w.warmups)
		}
		if err != nil {
			stop(ch) //nolint:errcheck // reporting the setup failure
			return nil, nil, err
		}
		return ch, regs, nil
	}
	measured, _, err := ready(c)
	if err != nil {
		return nil, err
	}
	err = h.cycle(c, measured, conns, openLen, closedLen, func() error {
		pc := newClient(1)
		defer pc.hc.CloseIdleConnections()
		group := make([]bootSample, probeBoots)
		h.speed.interval()
		for i := range group {
			t0 := time.Now()
			probe, regs, err := ready(pc)
			if err != nil {
				return err
			}
			group[i].Seconds = time.Since(t0).Seconds()
			for _, r := range regs {
				group[i].PutsMs = append(group[i].PutsMs, ms(r.latency))
			}
			if err := stop(probe); err != nil {
				return err
			}
		}
		f, steal := h.speed.interval()
		for i := range group {
			group[i].Speed, group[i].Steal = f, steal
		}
		h.boots = append(h.boots, group...)
		return nil
	})
	if err == nil {
		if h.rssMB, err = measured.peakRSSMB(); err == nil {
			h.counters, err = measured.counters(c.hc)
		}
	}
	if serr := stop(measured); err == nil && serr != nil {
		err = fmt.Errorf("stopping the server: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	h.tally()
	return h, nil
}

// cycle drives the open and the closed loop against ch in alternating
// windows, calling between after each pair.
func (h *httpRun) cycle(c *client, ch *child, conns int, openLen, closedLen time.Duration, between func() error) error {
	next := 0
	for k := 0; k < cycles; k++ {
		lo, hi := openLen*time.Duration(k)/cycles, openLen*time.Duration(k+1)/cycles
		var arr []arrival
		for _, a := range h.w.open {
			if a.at >= lo && a.at < hi {
				arr = append(arr, arrival{at: a.at - lo, op: a.op})
			}
		}
		var win window
		var late []time.Duration
		h.speed.interval()
		win.open, late = openLoop(c, arr, conns)
		win.openSpeed, win.openSteal = h.speed.interval()
		h.late = append(h.late, late...)
		cpu0, err := ch.cpuTicks()
		if err != nil {
			return err
		}
		win.closed, win.elapsed = closedLoop(c, h.w.closed, &next, conns, closedLen/cycles)
		cpu1, err := ch.cpuTicks()
		if err != nil {
			return err
		}
		win.closedSpeed, win.closedSteal = h.speed.interval()
		win.ticks = cpu1 - cpu0
		h.windows = append(h.windows, win)
		if err := between(); err != nil {
			return err
		}
	}
	return nil
}

func putOps(regs []registration) []*op {
	out := make([]*op, len(regs))
	for i, r := range regs {
		out[i] = putOp(r.key, r.payload)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: unknown metric " + name)
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
