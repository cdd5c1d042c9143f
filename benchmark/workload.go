package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilex/internal/wrapper"
)

// route is the serving surface a workload reads through.
type route int

const (
	routeBatch  route = iota // POST /extract
	routeStream              // POST /extract/stream/{key}
	routeTuples              // POST /extract/tuples/{key}
)

// registration is one wrapper PUT.
type registration struct {
	key     string
	payload []byte
}

// op is one HTTP operation the generator sends, with the answer the oracle
// expects. Reads carry their index in the read pool (the verified-response
// cache is keyed by it); writes carry pool = -1.
type op struct {
	method, path, ctype string
	body                []byte
	pages               []doc // the documents a read extracts; nil for a write
	pool                int
	key                 string // the written key, for writes
	want                any    // []answerJSON, answerJSON or tuplesJSON; nil for a write
}

func (o *op) write() bool { return o.pool < 0 }

// arrival is one open-loop request: when it is due, relative to the start of
// the phase, and what it sends.
type arrival struct {
	at time.Duration
	op *op
}

// workload is one generated traffic mix: what the server is booted with,
// what it is sent, and what the answers must be.
type workload struct {
	name      string
	route     route
	serveArgs []string // cmd/serve flags beyond -listen (and -cache-dir)
	cacheDir  bool     // boot over a persistent cache dir (registry-churn)
	cacheCap  int      // the -cache value the server runs with

	// preload is PUT by one untimed boot that populates the cache dir; regs
	// is PUT at every timed boot. warmups is one read per key, sent at every
	// timed boot after the registrations.
	preload, regs []registration
	warmups       []*op

	pages  []doc // every distinct page the reads carry
	reads  []*op // the read pool
	writes []*op // every write the schedules send (registry-churn)

	rate   float64 // open-loop arrivals per second (fixed; see rates)
	open   []arrival
	closed []*op // the closed-loop sequence, cycled

	// registry-churn only: the write payloads by popularity rank, the
	// written keys, and the version each key holds after the preload boot.
	churnArtifacts [][]byte
	churnKeys      []string
	baseVersion    map[string]uint64
}

// Open-loop rates in requests per second, fixed when the benchmark was
// defined at about 30% of the closed-loop request rate each workload reached
// then (2 clients, 2 cores; see README "Calibration"). They are constants
// so that a faster or slower commit is offered exactly the same load.
// BENCHMARK.json has no place for them; README lists them.
var rates = map[string]float64{
	"batch-small":    300,
	"stream-large":   130,
	"tuples-records": 800,
	"registry-churn": 600,
}

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"batch-small", "stream-large", "tuples-records", "registry-churn"}

// cycles is how many open-loop/closed-loop window pairs a run alternates
// through. The host this was calibrated on changes speed by tens of percent
// from one second to the next; interleaving the two loops over the whole
// run makes both see the same stretches, and each window gets its own speed
// factor (speed.go).
const cycles = 6

// phaseLengths splits a run of the given length between the open loop (a
// third) and the closed loop (two thirds): the bounded metrics come from the
// closed loop, and a third of a 24 s run still gives every workload's open
// loop the 1,000 reads a guarded p99 needs.
func phaseLengths(seconds float64) (open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total / 3, total - total/3
}

// closedSeqLen is the length of the closed-loop sequence; runs longer than
// it wrap around.
const closedSeqLen = 1 << 16

// generate builds the named workload for seed with an open loop of openLen.
func generate(name string, seed int64, openLen time.Duration) (*workload, error) {
	var w *workload
	switch name {
	case "batch-small":
		w = genBatchSmall(seed)
	case "stream-large":
		w = genStreamLarge(seed)
	case "tuples-records":
		w = genTuplesRecords(seed)
	case "registry-churn":
		w = genRegistryChurn(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.name = name
	w.rate = rates[name]
	if w.cacheCap == 0 {
		w.cacheCap = 256 // cmd/serve's default
	}
	w.schedule(rngFor(seed, name+"/schedule"), openLen)
	return w, nil
}

// schedule draws the open-loop arrivals — exactly rate × openLen of them,
// the same number in each of the cycles windows, placed uniformly at random
// within it: a Poisson process conditioned on its count per window, so every
// run's open-loop percentiles rest on the same sample sizes — and the
// closed-loop sequence.
func (w *workload) schedule(rng *rand.Rand, openLen time.Duration) {
	n := int(w.rate*openLen.Seconds() + 0.5)
	win := openLen / cycles
	at := make([]time.Duration, n)
	for i := range at {
		k := time.Duration(i * cycles / n) // window i falls in
		at[i] = k*win + time.Duration(rng.Int63n(int64(win)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	next := w.sequencer(rng)
	w.open = make([]arrival, n)
	for i := range at {
		w.open[i] = arrival{at: at[i], op: next()}
	}
	w.closed = make([]*op, closedSeqLen)
	for i := range w.closed {
		w.closed[i] = next()
	}
}

// sequencer returns the op stream both loops draw from: the read pool in a
// fresh seeded order each pass (every read sent equally often), with
// registry-churn's writes interleaved at one in ten operations.
func (w *workload) sequencer(rng *rand.Rand) func() *op {
	var order []int
	pos := 0
	nextRead := func() *op {
		if pos == len(order) {
			order = rng.Perm(len(w.reads))
			pos = 0
		}
		pos++
		return w.reads[order[pos-1]]
	}
	if len(w.churnKeys) == 0 {
		return nextRead
	}
	arts := w.churnArtifacts
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(arts)-1))
	return func() *op {
		if rng.Intn(10) != 0 {
			return nextRead()
		}
		key := w.churnKeys[rng.Intn(len(w.churnKeys))]
		o := putOp(key, arts[z.Uint64()])
		w.writes = append(w.writes, o)
		return o
	}
}

func putOp(key string, payload []byte) *op {
	return &op{method: http.MethodPut, path: "/wrappers/" + key, ctype: "application/json", body: payload, pool: -1, key: key}
}

// batchOp builds a POST /extract read over docs.
func batchOp(pool int, docs []doc, want []answerJSON) *op {
	req := struct {
		Docs []wrapper.BatchDoc `json:"docs"`
	}{Docs: make([]wrapper.BatchDoc, len(docs))}
	for i, d := range docs {
		req.Docs[i] = wrapper.BatchDoc{Key: d.key, HTML: d.html}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return &op{method: http.MethodPost, path: "/extract", ctype: "application/json", body: body, pages: docs, pool: pool, want: want}
}

// pageOp builds a single-document read on the stream or tuples route.
func pageOp(r route, pool int, d doc, want any) *op {
	path := "/extract/stream/" + d.key
	if r == routeTuples {
		path = "/extract/tuples/" + d.key
	}
	return &op{method: http.MethodPost, path: path, ctype: "text/html", body: []byte(d.html), pages: []doc{d}, pool: pool, want: want}
}

func genBatchSmall(seed int64) *workload {
	w := &workload{route: routeBatch}
	sites := genSites(rngFor(seed, "batch-small/sites"), "site", 32, []string{"BR"})
	w.regs = sitesRegs(sites)
	o := newOracle(w.regs, nil)
	rng := rngFor(seed, "batch-small/pool")
	w.pages = fig1Pool(rng, sites, 2048)
	sizes := make([]int, 512)
	for i := range sizes {
		sizes[i] = 1 + i%16 // batch sizes uniform over 1–16
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	w.reads = batchReads(rng, o, w.pages, sizes)
	w.warmups = siteWarmups(o, sites, len(w.reads))
	return w
}

func genRegistryChurn(seed int64) *workload {
	w := &workload{route: routeBatch, cacheDir: true, cacheCap: 16, serveArgs: []string{"-cache", "16"}}
	sites := genSites(rngFor(seed, "registry-churn/sites"), "site", 16, []string{"BR"})
	reads := sitesRegs(sites)
	o := newOracle(reads, nil)
	rng := rngFor(seed, "registry-churn/pool")
	w.pages = fig1Pool(rng, sites, 512)
	sizes := make([]int, 512)
	for i := range sizes {
		sizes[i] = 4
	}
	w.reads = batchReads(rng, o, w.pages, sizes)
	w.warmups = siteWarmups(o, sites, len(w.reads))

	// 96 write artifacts by popularity rank: every third rank is an E17
	// witness (n = 8, 10, 12 in turn), the rest Figure-1 wrappers made
	// distinct by one extra Σ name. The rank → kind pattern is fixed so the
	// compile and decode cost behind each popularity rank is the same under
	// every seed.
	arng := rngFor(seed, "registry-churn/artifacts")
	tag := arng.Intn(1 << 20)
	for r := 0; r < 96; r++ {
		if r%3 == 2 {
			n := []int{8, 10, 12}[(r/3)%3]
			w.churnArtifacts = append(w.churnArtifacts,
				singlePayload(witnessSource(n), []string{"p", "q", fmt.Sprintf("W%d_%d", tag, r)}, nil, "witness"))
			continue
		}
		base := sites[arng.Intn(len(sites))].payload
		w.churnArtifacts = append(w.churnArtifacts, withExtraSigma(base, fmt.Sprintf("EXT%d_%d", tag, r)))
	}
	for i := 0; i < 32; i++ {
		w.churnKeys = append(w.churnKeys, fmt.Sprintf("churn-%d", i))
	}
	w.preload = append(w.preload, reads...)
	for r, p := range w.churnArtifacts {
		w.preload = append(w.preload, registration{key: w.churnKeys[r%len(w.churnKeys)], payload: p})
	}
	return w
}

func genStreamLarge(seed int64) *workload {
	w := &workload{route: routeStream}
	skip := append([]string{"BR"}, streamForeign...)
	sites := genSites(rngFor(seed, "stream-large/sites"), "big", 4, skip)
	w.regs = sitesRegs(sites)
	o := newOracle(w.regs, nil)
	rng := rngFor(seed, "stream-large/pool")
	sizes := logSizes(rng, 48, 48<<10, 1300<<10)
	smallest := map[string]int{}
	for i, size := range sizes {
		s := sites[i%len(sites)]
		d := doc{key: s.key, html: streamPage(rng, s, size)}
		w.pages = append(w.pages, d)
		w.reads = append(w.reads, pageOp(routeStream, i, d, o.single(0, d)))
		if j, ok := smallest[s.key]; !ok || size < sizes[j] {
			smallest[s.key] = i
		}
	}
	w.warmups = pageWarmups(w.reads, smallest)
	return w
}

func genTuplesRecords(seed int64) *workload {
	w := &workload{route: routeTuples}
	var keys []string
	for _, k := range []int{2, 3, 4} {
		for _, sh := range tupleShapes {
			key := fmt.Sprintf("rec-k%d-%s", k, sh.name)
			keys = append(keys, key)
			w.regs = append(w.regs, registration{key: key, payload: tuplePayload(tupleSource(sh, k), sh.sigma, nil)})
		}
	}
	rng := rngFor(seed, "tuples-records/pool")
	rows := logSizes(rng, 256, 4, 97) // most tables short, a long tail of long ones
	smallest := map[string]int{}
	for i := range rows {
		wi := i % len(keys)
		sh, k := tupleShapes[wi%len(tupleShapes)], 2+wi/len(tupleShapes)
		w.pages = append(w.pages, doc{key: keys[wi], html: recordTable(rng, sh, k, rows[i])})
		if j, ok := smallest[keys[wi]]; !ok || rows[i] < rows[j] {
			smallest[keys[wi]] = i
		}
	}
	// The k-nested oracle is superlinear in the table length; spread it over
	// the cores (it runs before any clock starts).
	o := newOracle(nil, w.regs)
	want := make([]tuplesJSON, len(w.pages))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(w.pages); i = int(next.Add(1) - 1) {
				want[i] = o.tuples(w.pages[i])
			}
		}()
	}
	wg.Wait()
	for i, d := range w.pages {
		w.reads = append(w.reads, pageOp(routeTuples, i, d, want[i]))
	}
	w.warmups = pageWarmups(w.reads, smallest)
	return w
}

// genSites trains n Figure-1 sites keyed prefix-00, prefix-01, ….
func genSites(rng *rand.Rand, prefix string, n int, skip []string) []site {
	out := make([]site, n)
	for i := range out {
		out[i] = newSite(rng, fmt.Sprintf("%s-%02d", prefix, i), skip)
	}
	return out
}

func sitesRegs(sites []site) []registration {
	out := make([]registration, len(sites))
	for i, s := range sites {
		out[i] = registration{key: s.key, payload: s.payload}
	}
	return out
}

// batchReads builds one POST /extract read per entry of sizes, each over
// that many pages drawn uniformly from pages.
func batchReads(rng *rand.Rand, o *oracle, pages []doc, sizes []int) []*op {
	out := make([]*op, len(sizes))
	for b, n := range sizes {
		docs := make([]doc, n)
		want := make([]answerJSON, n)
		for i := range docs {
			docs[i] = pages[rng.Intn(len(pages))]
			want[i] = o.single(i, docs[i])
		}
		out[b] = batchOp(b, docs, want)
	}
	return out
}

// siteWarmups is one single-document batch per site over its bottom layout.
// Warm-ups are checked like reads; their pool indices follow the read pool's.
func siteWarmups(o *oracle, sites []site, base int) []*op {
	out := make([]*op, len(sites))
	for i, s := range sites {
		d := doc{key: s.key, html: s.layouts[1]}
		out[i] = batchOp(base+i, []doc{d}, []answerJSON{o.single(0, d)})
	}
	return out
}

// pageWarmups re-sends, for each key, the smallest page of the read pool.
func pageWarmups(reads []*op, smallest map[string]int) []*op {
	keys := make([]string, 0, len(smallest))
	for k := range smallest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*op, len(keys))
	for i, k := range keys {
		out[i] = reads[smallest[k]]
	}
	return out
}
