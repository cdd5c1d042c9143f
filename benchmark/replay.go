package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"time"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/serve"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// The traced replay runs a workload's generated inputs single-goroutine
// through the public functions of each layer, in-process, and records spans
// in memory around those calls — the program itself is not instrumented for
// this. End-to-end numbers never come from here.
//
// It has four parts, each recorded by its own tracer:
//
//	artifacts  every distinct wrapper payload through decode, compile,
//	           artifact encode/decode, the disk and memory cache tiers and
//	           LoadCached; then the registrations (registry-churn: the
//	           writes) through an in-process serve.Server's PUT handler
//	requests   reads of the read pool through the same server's handler
//	           (serve.Mux().ServeHTTP into a recorder), each followed by the
//	           same request re-done stage by stage with a span per layer
//	           call, so stage self times can be reconciled against it
//	layers     every page of the pool through each layer alone
//	overhead   the requests' stages again with spans off and on, alternating
//
// Per-layer metrics apply to every workload. Where a layer serves the other
// arity, the replay runs the same wrapper in that arity's form: a
// single-pivot wrapper E1⟨p⟩E2 is the k = 1 tuple, and a tuple wrapper's
// first-slot projection (every pivot after the first unmarked) is a
// single-pivot wrapper.

// streamChunk is the read size of a serve streaming session.
const streamChunk = 32 << 10

// counts are the work counters a span carries.
type counts struct {
	Bytes   int64 `json:"bytes,omitempty"`
	Tokens  int64 `json:"tokens,omitempty"`
	Docs    int64 `json:"docs,omitempty"`
	Vectors int64 `json:"vectors,omitempty"`
	Nodes   int64 `json:"nodes,omitempty"`
}

// span is one timed call. Self is the duration minus the time its children
// cover.
type span struct {
	Phase   string `json:"phase"`
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	counts
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps one part's spans in memory. A tracer that is off records
// nothing and costs a branch per call: the untraced side of
// trace.overhead_frac.
type tracer struct {
	on    bool
	phase string
	t0    time.Time
	req   int
	spans []span
	stack []int
}

func newTracer(phase string, t0 time.Time) *tracer {
	return &tracer{on: true, phase: phase, t0: t0}
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Phase: t.phase, Name: name, ID: id, Parent: parent, Req: t.req, StartNS: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int, c counts) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	s.counts = c
	t.stack = t.stack[:len(t.stack)-1]
}

// finish fills in self times; spans of one goroutine never overlap their
// siblings, so a parent's children cover exactly the sum of their durations.
func (t *tracer) finish() {
	covered := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			covered[p] += t.spans[i].dur()
		}
	}
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].dur() - covered[i]
	}
}

// agg sums the spans of one name.
type agg struct {
	n    int
	ns   int64
	durs []float64 // per span, ns
	counts
}

func (t *tracer) agg(name string) agg {
	var a agg
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		a.n++
		a.ns += s.dur()
		a.durs = append(a.durs, float64(s.dur()))
		a.Bytes += s.Bytes
		a.Tokens += s.Tokens
		a.Docs += s.Docs
		a.Vectors += s.Vectors
		a.Nodes += s.Nodes
	}
	return a
}

// pairedDiff sums, over the pages (request ids) both passes ran, the
// duration of pass a minus that of pass b, and the tokens b counted: the
// cost a adds on top of b, with b's token count as the base.
func (t *tracer) pairedDiff(a, b string) (ns, tokens float64, n int) {
	type rec struct {
		ns     int64
		tokens int64
	}
	base := map[int]rec{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == b {
			base[s.Req] = rec{s.dur(), s.Tokens}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if r, ok := base[s.Req]; ok && s.Name == a {
			ns += float64(s.dur() - r.ns)
			tokens += float64(r.tokens)
			n++
		}
	}
	return ns, tokens, n
}

// persisted is the part of a wrapper payload the replay reads.
type persisted struct {
	Kind  string   `json:"kind"`
	Expr  string   `json:"expr"`
	Sigma []string `json:"sigma"`
	Skip  []string `json:"skip"`
}

// kit is one key's wrapper in both arities, loaded for the replay, with
// mappers configured like the wrappers' own.
type kit struct {
	single *wrapper.Wrapper
	smap   *htmltok.Mapper
	sm     *extract.StreamMatcher
	se     *wrapper.StreamExtractor
	tuple  *wrapper.TupleWrapper
	tmap   *htmltok.Mapper
	prog   *spanner.Program
	isTup  bool // the key's served form is the tuple
}

var markRE = regexp.MustCompile(`<([^<>\s]+)>`)

// firstMarkOnly unmarks every pivot after the first.
func firstMarkOnly(src string) string {
	n := 0
	return markRE.ReplaceAllStringFunc(src, func(m string) string {
		if n++; n == 1 {
			return m
		}
		return m[1 : len(m)-1]
	})
}

func newKit(payload []byte) (*kit, error) {
	var p persisted
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, err
	}
	k := &kit{isTup: p.Kind == "tuple"}
	singleSrc := p.Expr
	if k.isTup {
		singleSrc = firstMarkOnly(p.Expr)
	}
	var err error
	if k.single, err = wrapper.Load(singlePayload(singleSrc, p.Sigma, p.Skip, "replay"), machine.Options{}); err != nil {
		return nil, fmt.Errorf("single-pivot form: %w", err)
	}
	if k.tuple, err = wrapper.LoadTuple(tuplePayload(p.Expr, p.Sigma, p.Skip), machine.Options{}); err != nil {
		return nil, fmt.Errorf("tuple form: %w", err)
	}
	tcomp, err := extract.CompileTupleArtifact(p.Expr, p.Sigma, machine.Options{})
	if err != nil {
		return nil, err
	}
	if k.prog, err = spanner.Compile(tcomp.Tuple, machine.Options{}); err != nil {
		return nil, err
	}
	if k.sm, err = k.single.Expr().CompileStream(); err != nil {
		return nil, err
	}
	if k.se, err = k.single.Stream(); err != nil {
		return nil, err
	}
	skip := map[string]bool{}
	for _, s := range p.Skip {
		skip[s] = true
	}
	k.smap = htmltok.NewMapper(k.single.Table())
	k.tmap = htmltok.NewMapper(tcomp.Tab)
	if len(skip) > 0 {
		k.smap.Skip, k.tmap.Skip = skip, skip
	}
	return k, nil
}

// routeMapper is the mapper of the form the key is served in.
func (k *kit) routeMapper() *htmltok.Mapper {
	if k.isTup {
		return k.tmap
	}
	return k.smap
}

type replayer struct {
	w        *workload
	out      string
	tmp      string
	deadline time.Time
	t0       time.Time
	kits     map[string]*kit
	mux      http.Handler

	art, req, lay *tracer
	compiles      int
	subsetStates  int64
	hits, tried   int // pool pages the route's own extraction answers, of those it ran
	liveMax       int
	carries       int64
	chunks        int64
	extractAllocs float64
	extractKB     float64
	streamAllocs  float64
	requests      []*op // the reads the requests part replayed
	overhead      float64
	buf           bytes.Buffer
}

// replay runs the traced replay of w and returns the per-layer metrics,
// combining them with what the HTTP run h measured.
func (b *bench) replay(w *workload, h *httpRun) (map[string]metricValue, error) {
	tmp, err := os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "replay-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	t0 := time.Now()
	r := &replayer{
		w: w, out: b.out, tmp: tmp, t0: t0,
		deadline: t0.Add(time.Duration(b.seconds / 2 * float64(time.Second))), // the replay's budget
		kits:     map[string]*kit{},
		art:      newTracer("artifacts", t0),
		req:      newTracer("requests", t0),
		lay:      newTracer("layers", t0),
	}
	payloads := map[string][]byte{}
	for _, reg := range append(append([]registration(nil), w.preload...), w.regs...) {
		payloads[reg.key] = reg.payload
	}
	for _, d := range w.pages {
		if r.kits[d.key] != nil {
			continue
		}
		k, err := newKit(payloads[d.key])
		if err != nil {
			return nil, fmt.Errorf("replay: %s: %w", d.key, err)
		}
		r.kits[d.key] = k
	}
	steps := []struct {
		share float64
		run   func(time.Time) error
	}{{0.2, r.artifacts}, {0.25, r.requestsPart}, {0.4, r.layers}, {0.15, r.overheadPart}}
	speed := startProbe()
	defer speed.close()
	start := time.Now()
	for _, st := range steps {
		budget := time.Duration(st.share * float64(r.deadline.Sub(start)))
		if err := st.run(time.Now().Add(budget)); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	scale := refScale(speed.interval())
	if err := r.writeSpans(); err != nil {
		return nil, err
	}
	return r.metrics(h, scale), nil
}

// timeUnits are the units of the per-layer timings, which are scaled to the
// reference speed like the end-to-end ones.
var timeUnits = map[string]bool{"us": true, "ms": true, "ns": true, "ns/B": true, "ms/MB": true}

// artifacts times the compile-side layers on every distinct payload, then
// registers the workload's wrappers with an in-process server through its
// PUT handler.
func (r *replayer) artifacts(until time.Time) error {
	o := obs.New()
	opt := machine.Options{Ctx: obs.NewContext(context.Background(), o)}
	disk, err := extract.NewDiskCache(filepath.Join(r.tmp, "artifacts"), -1, nil)
	if err != nil {
		return err
	}
	regs := r.w.regs
	if len(r.w.preload) > 0 {
		regs = r.w.preload
	}
	// Half the budget for the artifacts, half for the registrations.
	artUntil := time.Now().Add(time.Until(until) / 2)
	seen := map[string]bool{}
	t := r.art
	for i, reg := range regs {
		if seen[string(reg.payload)] || (r.compiles > 0 && time.Now().After(artUntil)) {
			continue
		}
		seen[string(reg.payload)] = true
		t.req = i
		root := t.begin("replay.artifact")
		var p persisted
		s := t.begin("serve.json_decode")
		err := json.Unmarshal(reg.payload, &p)
		t.end(s, counts{Bytes: int64(len(reg.payload))})
		if err != nil {
			return err
		}
		if err := r.artifact(t, p, reg.payload, opt, disk); err != nil {
			return fmt.Errorf("%s: %w", reg.key, err)
		}
		t.end(root, counts{})
		r.compiles++
	}
	r.subsetStates = o.Counter("machine_subset_states_total").Value()

	cfg := serve.Config{CacheCap: r.w.cacheCap, Observer: obs.New(), Batch: wrapper.BatchOptions{Workers: 1}, RestoreLog: io.Discard}
	if r.w.cacheDir {
		cfg.CacheDir = filepath.Join(r.tmp, "serve")
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	r.mux = srv.Mux()
	// Registry-churn's timed registrations are its writes (as many as the
	// budget allows), made over the preloaded registry; everywhere else they
	// are the boot-time registrations, all of which the requests need.
	if len(r.w.preload) == 0 {
		for i, o := range putOps(r.w.regs) {
			t.req = len(regs) + i
			if err := r.put(t, o); err != nil {
				return err
			}
		}
		return nil
	}
	for _, o := range putOps(r.w.preload) {
		if err := r.put(nil, o); err != nil {
			return err
		}
	}
	for i, o := range r.w.writes {
		if i > 0 && time.Now().After(until) {
			break
		}
		t.req = len(regs) + i
		if err := r.put(t, o); err != nil {
			return err
		}
	}
	return nil
}

// artifact times one payload through the compile, codec and cache layers.
func (r *replayer) artifact(t *tracer, p persisted, payload []byte, opt machine.Options, disk *extract.DiskCache) error {
	tc := extract.NewTieredCache(extract.NewCache(4, nil), disk)
	var none machine.Options
	if p.Kind == "tuple" {
		return timeArtifact(t,
			func() (*extract.CompiledTuple, error) { return extract.CompileTupleArtifact(p.Expr, p.Sigma, opt) },
			extract.EncodeTupleArtifact,
			func(blob []byte) error { _, err := extract.DecodeTupleArtifact(blob, none); return err },
			func(c *extract.CompiledTuple) error {
				key, err := extract.KeyTuple(p.Expr, p.Sigma)
				if err != nil {
					return err
				}
				return disk.PutTuple(key, c)
			},
			func() error { _, err := tc.LoadTuple(p.Expr, p.Sigma, none); return err },
			func() error { _, err := wrapper.LoadTupleCached(payload, none, tc); return err })
	}
	return timeArtifact(t,
		func() (*extract.Compiled, error) { return extract.CompileArtifact(p.Expr, p.Sigma, opt) },
		extract.EncodeArtifact,
		func(blob []byte) error { _, err := extract.DecodeArtifact(blob, none); return err },
		func(c *extract.Compiled) error {
			key, err := extract.Key(p.Expr, p.Sigma)
			if err != nil {
				return err
			}
			return disk.Put(key, c)
		},
		func() error { _, err := tc.Load(p.Expr, p.Sigma, none); return err },
		func() error { _, err := wrapper.LoadCached(payload, none, tc); return err })
}

// timeArtifact runs one artifact of either arity through compile, encode
// and decode, stores it on disk (untimed), loads it through a fresh tiered
// cache twice — from disk, then from memory — and once more through the
// wrapper layer's cached load.
func timeArtifact[C any](t *tracer, compile func() (C, error), encode func(C) ([]byte, error),
	decode func([]byte) error, store func(C) error, load, loadCached func() error) error {
	s := t.begin("extract.compile")
	c, err := compile()
	t.end(s, counts{})
	if err != nil {
		return err
	}
	s = t.begin("extract.encode_artifact")
	blob, err := encode(c)
	t.end(s, counts{Bytes: int64(len(blob))})
	if err != nil {
		return err
	}
	s = t.begin("extract.decode_artifact")
	err = decode(blob)
	t.end(s, counts{Bytes: int64(len(blob))})
	if err != nil {
		return err
	}
	if err := store(c); err != nil {
		return err
	}
	for _, name := range []string{"extract.cache_disk", "extract.cache_mem"} {
		s = t.begin(name)
		err = load()
		t.end(s, counts{})
		if err != nil {
			return err
		}
	}
	s = t.begin("wrapper.load_cached")
	err = loadCached()
	t.end(s, counts{})
	return err
}

// put sends one registration through the in-process PUT handler, timed as
// serve.put when t is not nil.
func (r *replayer) put(t *tracer, o *op) error {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", o.ctype)
	rec := httptest.NewRecorder()
	s := -1
	if t != nil {
		s = t.begin("serve.put")
	}
	r.mux.ServeHTTP(rec, req)
	if t != nil {
		t.end(s, counts{Bytes: int64(len(o.body))})
	}
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("in-process PUT %s: status %d: %s", o.path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// requestsPart replays reads through the in-process handler, each followed
// by its stage-by-stage re-run.
func (r *replayer) requestsPart(until time.Time) error {
	t := r.req
	for i, o := range r.w.reads {
		if i > 0 && time.Now().After(until) {
			break
		}
		t.req = i
		root := t.begin("replay.request")
		req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		req.Header.Set("Content-Type", o.ctype)
		rec := httptest.NewRecorder()
		s := t.begin("serve.handler")
		r.mux.ServeHTTP(rec, req)
		t.end(s, counts{Bytes: int64(len(o.body)), Docs: int64(len(o.pages))})
		s = t.begin("replay.stages")
		got, err := r.stages(t, o)
		t.end(s, counts{})
		t.end(root, counts{})
		if err != nil {
			return err
		}
		if err := checkRead(o, rec.Code, rec.Body.Bytes()); err != nil {
			return fmt.Errorf("in-process handler: %w", err)
		}
		if err := checkRead(o, http.StatusOK, got); err != nil {
			return fmt.Errorf("stage re-run: %w", err)
		}
		r.requests = append(r.requests, o)
	}
	return nil
}

// stages re-does one request's work one layer call at a time and returns
// the response body the stages produced.
func (r *replayer) stages(t *tracer, o *op) ([]byte, error) {
	r.buf.Reset()
	switch r.w.route {
	case routeBatch:
		s := t.begin("serve.json_decode")
		var req struct {
			Docs []wrapper.BatchDoc `json:"docs"`
		}
		err := json.Unmarshal(o.body, &req)
		t.end(s, counts{Bytes: int64(len(o.body))})
		if err != nil {
			return nil, err
		}
		out := batchJSON{Results: make([]answerJSON, len(req.Docs))}
		for i, d := range req.Docs {
			k := r.kits[d.Key]
			s = t.begin("htmltok.map")
			page := k.smap.Map(d.HTML)
			t.end(s, counts{Bytes: int64(len(d.HTML)), Tokens: int64(len(page.Syms))})
			s = t.begin("extract.find")
			pos, ok := k.single.ExtractTokens(page.Syms)
			t.end(s, counts{Tokens: int64(len(page.Syms))})
			s = t.begin("wrapper.region")
			out.Results[i] = answer(i, d.Key, ok, pos, page.SpanOf, page.Source)
			t.end(s, counts{Docs: 1})
		}
		s = t.begin("serve.json_encode")
		err = json.NewEncoder(&r.buf).Encode(out)
		t.end(s, counts{Bytes: int64(r.buf.Len())})
		return r.buf.Bytes(), err
	case routeStream:
		d := o.pages[0]
		k := r.kits[d.key]
		s := t.begin("htmltok.stream")
		syms, spans := streamSyms(k.smap, o.body)
		t.end(s, counts{Bytes: int64(len(o.body)), Tokens: int64(len(syms))})
		s = t.begin("extract.streamrun")
		run := k.sm.Get(extract.FindLeftmost)
		for _, sym := range syms {
			run.Feed(sym)
		}
		pos, ok := run.Find()
		k.sm.Put(run)
		t.end(s, counts{Tokens: int64(len(syms))})
		s = t.begin("wrapper.region")
		a := answer(0, d.key, ok, pos,
			func(i int) htmltok.Span { return spans[i] },
			func(i int) string { return string(o.body[spans[i].Start:spans[i].End]) })
		t.end(s, counts{Docs: 1})
		s = t.begin("serve.json_encode")
		err := json.NewEncoder(&r.buf).Encode(a)
		t.end(s, counts{Bytes: int64(r.buf.Len())})
		return r.buf.Bytes(), err
	default:
		d := o.pages[0]
		k := r.kits[d.key]
		s := t.begin("htmltok.map")
		page := k.tmap.Map(d.html)
		t.end(s, counts{Bytes: int64(len(d.html)), Tokens: int64(len(page.Syms))})
		s = t.begin("spanner.run")
		m, err := k.prog.Run(page.Syms)
		if err != nil {
			t.end(s, counts{})
			return nil, err
		}
		t.end(s, counts{Tokens: int64(len(page.Syms)), Nodes: int64(m.Nodes())})
		s = t.begin("spanner.enum")
		vecs, err := m.All()
		t.end(s, counts{Vectors: int64(len(vecs))})
		if err != nil {
			return nil, err
		}
		s = t.begin("wrapper.region")
		out := tuplesJSON{Key: d.key, Arity: k.tuple.Arity(), Count: len(vecs), Records: make([][]slotJSON, len(vecs))}
		for i, v := range vecs {
			rec := make([]slotJSON, len(v))
			for j, p := range v {
				sp := page.SpanOf(p)
				rec[j] = slotJSON{TokenIndex: p, Start: sp.Start, End: sp.End, Source: page.Source(p)}
			}
			out.Records[i] = rec
		}
		t.end(s, counts{Docs: 1, Vectors: int64(len(vecs))})
		s = t.begin("serve.json_encode")
		err = json.NewEncoder(&r.buf).Encode(out)
		t.end(s, counts{Bytes: int64(r.buf.Len())})
		return r.buf.Bytes(), err
	}
}

// answer is the single-pivot result row for a found (or missed) position.
func answer(i int, key string, ok bool, pos int, spanOf func(int) htmltok.Span, source func(int) string) answerJSON {
	a := answerJSON{Index: i, Key: key, OK: ok}
	if !ok {
		a.Error = wrapper.ErrNotExtracted.Error()
		return a
	}
	sp := spanOf(pos)
	a.TokenIndex, a.Start, a.End, a.Source = pos, sp.Start, sp.End, source(pos)
	return a
}

// streamSyms tokenizes page in serve-sized chunks with the resumable
// streamer and resolves each token with StreamSym, returning the kept
// symbols and their spans.
func streamSyms(m *htmltok.Mapper, page []byte) ([]symtab.Symbol, []htmltok.Span) {
	var syms []symtab.Symbol
	var spans []htmltok.Span
	st := htmltok.NewStreamer(func(rt htmltok.RawToken) {
		if sym, ok := m.StreamSym(rt); ok {
			syms = append(syms, sym)
			spans = append(spans, htmltok.Span{Start: rt.Start, End: rt.End})
		}
	})
	feedChunks(st, page)
	return syms, spans
}

// layers runs every page of the pool through each layer alone. Each pass
// gets an equal share of the budget and stops early (after at least one
// page) when it runs out.
func (r *replayer) layers(until time.Time) error {
	t := r.lay
	pages := r.w.pages
	type pageSyms struct{ single, tuple []symtab.Symbol }
	syms := make([]pageSyms, len(pages))
	for i, d := range pages { // untimed: the symbol strings later passes consume
		k := r.kits[d.key]
		syms[i] = pageSyms{k.smap.Map(d.html).Syms, k.tmap.Map(d.html).Syms}
	}
	ctx := context.Background()
	var sink int
	bodies := make([][]byte, len(pages))
	for i, d := range pages {
		bodies[i] = []byte(d.html)
	}
	var rd bytes.Reader
	passes := []struct {
		name string
		page func(i int, d doc, k *kit) (counts, error)
	}{
		{"htmltok.scan", func(i int, d doc, k *kit) (counts, error) {
			return counts{Bytes: int64(len(d.html)), Tokens: int64(len(htmltok.Scan(d.html)))}, nil
		}},
		{"htmltok.map", func(i int, d doc, k *kit) (counts, error) {
			return counts{Bytes: int64(len(d.html)), Tokens: int64(len(k.routeMapper().Map(d.html).Syms))}, nil
		}},
		{"htmltok.feed", func(i int, d doc, k *kit) (counts, error) {
			var n int64
			st := htmltok.NewStreamer(func(htmltok.RawToken) { n++ })
			feedChunks(st, bodies[i])
			ch, ca := st.Stats()
			r.chunks += ch
			r.carries += ca
			return counts{Bytes: int64(len(d.html)), Tokens: n}, nil
		}},
		{"htmltok.streamsym", func(i int, d doc, k *kit) (counts, error) {
			m := k.routeMapper()
			var n int64
			st := htmltok.NewStreamer(func(rt htmltok.RawToken) {
				if sym, ok := m.StreamSym(rt); ok {
					sink += int(sym)
				}
				n++
			})
			feedChunks(st, bodies[i])
			return counts{Bytes: int64(len(d.html)), Tokens: n}, nil
		}},
		{"extract.find", func(i int, d doc, k *kit) (counts, error) {
			pos, ok := k.single.ExtractTokens(syms[i].single)
			sink += pos
			if !k.isTup {
				r.tried++
				if ok {
					r.hits++
				}
			}
			return counts{Tokens: int64(len(syms[i].single))}, nil
		}},
		{"extract.streamrun", func(i int, d doc, k *kit) (counts, error) {
			run := k.sm.Get(extract.FindLeftmost)
			for _, sym := range syms[i].single {
				run.Feed(sym)
			}
			pos, _ := run.Find()
			sink += pos
			k.sm.Put(run)
			return counts{Tokens: int64(len(syms[i].single))}, nil
		}},
		{"wrapper.extract", func(i int, d doc, k *kit) (counts, error) {
			_, err := k.single.Extract(d.html)
			return counts{Bytes: int64(len(d.html)), Docs: 1}, missOK(err)
		}},
		{"wrapper.stream", func(i int, d doc, k *kit) (counts, error) {
			rd.Reset(bodies[i])
			err := k.se.ExtractReaderTo(ctx, &rd, func(sr wrapper.StreamRegion) error {
				sink += sr.TokenIndex
				return nil
			})
			return counts{Bytes: int64(len(d.html)), Docs: 1}, missOK(err)
		}},
		{"wrapper.extract_all", func(i int, d doc, k *kit) (counts, error) {
			recs, err := k.tuple.ExtractAll(d.html)
			return counts{Docs: 1, Vectors: int64(len(recs))}, err
		}},
		{"spanner.run", func(i int, d doc, k *kit) (counts, error) {
			m, err := k.prog.Run(syms[i].tuple)
			if err != nil {
				return counts{}, err
			}
			s := t.begin("spanner.enum")
			var n int64
			for {
				_, ok, err := m.Next()
				if err != nil {
					return counts{}, err
				}
				if !ok {
					break
				}
				n++
			}
			t.end(s, counts{Vectors: n})
			if k.isTup {
				r.tried++
				if n > 0 {
					r.hits++
				}
			}
			return counts{Tokens: int64(len(syms[i].tuple)), Nodes: int64(m.Nodes())}, nil
		}},
	}
	share := time.Until(until) / time.Duration(len(passes)+1)
	var ms0, ms1 runtime.MemStats
	for _, p := range passes {
		passEnd := time.Now().Add(share)
		runtime.ReadMemStats(&ms0)
		n := 0
		for i, d := range pages {
			if i > 0 && time.Now().After(passEnd) {
				break
			}
			t.req = i
			s := t.begin(p.name)
			c, err := p.page(i, d, r.kits[d.key])
			t.end(s, c)
			if err != nil {
				return fmt.Errorf("%s on %s page %d: %w", p.name, d.key, i, err)
			}
			n++
		}
		runtime.ReadMemStats(&ms1)
		allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		kb := float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n)
		switch p.name {
		case "wrapper.extract":
			r.extractAllocs, r.extractKB = allocs, kb
		case "wrapper.stream":
			r.streamAllocs = allocs
		}
	}
	// wrapper.batch: the fleet's batch path on one worker, over the reads'
	// batches (one page per batch on the single-document routes).
	fleet := wrapper.NewFleet()
	for key, k := range r.kits {
		fleet.Add(key, k.single)
	}
	passEnd := time.Now().Add(share)
	for i, o := range r.w.reads {
		if i > 0 && time.Now().After(passEnd) {
			break
		}
		docs := make([]wrapper.BatchDoc, len(o.pages))
		for j, d := range o.pages {
			docs[j] = wrapper.BatchDoc{Key: d.key, HTML: d.html}
		}
		t.req = i
		s := t.begin("wrapper.batch")
		res := fleet.ExtractBatch(ctx, docs, wrapper.BatchOptions{Workers: 1})
		t.end(s, counts{Docs: int64(len(docs))})
		for _, x := range res {
			if err := missOK(x.Err); err != nil {
				return fmt.Errorf("wrapper.batch: %w", err)
			}
		}
	}
	// Peak live suffix threads, untimed: Live after every token.
	var live []int32
	for i, d := range pages {
		k := r.kits[d.key]
		run := k.sm.Get(extract.FindLeftmost)
		for _, sym := range syms[i].single {
			run.Feed(sym)
			if live = run.Live(live[:0]); len(live) > r.liveMax {
				r.liveMax = len(live)
			}
		}
		k.sm.Put(run)
	}
	_ = sink
	return nil
}

func feedChunks(st *htmltok.Streamer, page []byte) {
	for off := 0; off < len(page); off += streamChunk {
		st.Feed(page[off:min(off+streamChunk, len(page))])
	}
	st.Close()
}

// missOK treats an extraction miss as a result, not a failure.
func missOK(err error) error {
	if errors.Is(err, wrapper.ErrNotExtracted) {
		return nil
	}
	return err
}

// overheadPart times the replayed requests' stages with spans off and on
// in adjacent rounds, alternating which goes first, and reports the median
// on/off ratio of the pairs minus one. Pairing adjacent rounds keeps the
// host's speed drifts out of the ratio.
func (r *replayer) overheadPart(until time.Time) error {
	reqs := r.requests[:min(len(r.requests), 64)]
	if len(reqs) == 0 {
		return nil
	}
	var ratios []float64
	for pair := 0; pair < 6 || (pair < 200 && time.Now().Before(until)); pair++ {
		var d [2]float64
		for i := 0; i < 2; i++ {
			on := (pair+i)%2 == 1
			t := &tracer{on: on, t0: r.t0}
			start := time.Now()
			for _, o := range reqs {
				if _, err := r.stages(t, o); err != nil {
					return err
				}
			}
			d[boolInt(on)] = float64(time.Since(start))
		}
		ratios = append(ratios, d[1]/d[0])
	}
	r.overhead = median(ratios) - 1
	return nil
}

// writeSpans writes every recorded span as one JSON line to
// <out>/trace-<workload>.jsonl.
func (r *replayer) writeSpans() error {
	f, err := os.Create(filepath.Join(r.out, "trace-"+r.w.name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range []*tracer{r.art, r.req, r.lay} {
		t.finish()
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metrics turns the spans (and the HTTP run's measurements) into the
// per-layer metrics, converting the replay's timings to the reference speed
// with its refScale.
func (r *replayer) metrics(h *httpRun, scale float64) map[string]metricValue {
	m := map[string]metricValue{}
	set := func(name string, v float64, n int, note string) {
		unit := unitOf(name)
		if timeUnits[unit] {
			v *= scale
		}
		m[name] = metricValue{Value: v, Unit: unit, Samples: n, Note: note}
	}
	med := func(a agg, scale float64) float64 { return median(a.durs) / scale }
	const us, msec = 1e3, 1e6

	late := make([]float64, len(h.late))
	for i, d := range h.late {
		late[i] = ms(d)
	}
	if v, beyond, ok := percentile(late, 0.99); ok {
		m["gen.late_p99_ms"] = metricValue{Value: v, Unit: "ms", Samples: len(late), Beyond: beyond}
	}
	set("gen.requests", float64(h.attempted), h.attempted, "")
	open, closed := h.reads()
	setPercentile(m, "gen.open_p50_ms", open, 0.5, "open-loop reads")
	setPercentile(m, "gen.open_p99_ms", open, 0.99, "open-loop reads")
	setPercentile(m, "gen.closed_p99_ms", closed, 0.99, "closed-loop reads")

	handler := r.req.agg("serve.handler")
	handlerP50 := med(handler, us)
	set("serve.handler_p50_us", handlerP50, handler.n, "")
	if r.w.route == routeBatch {
		dec := r.req.agg("serve.json_decode")
		set("serve.json_decode_us", med(dec, us), dec.n, "request body")
	} else {
		dec := r.art.agg("serve.json_decode")
		set("serve.json_decode_us", med(dec, us), dec.n, "wrapper payloads (this route reads no JSON)")
	}
	enc := r.req.agg("serve.json_encode")
	set("serve.json_encode_us", med(enc, us), enc.n, "")
	if p50, ok := m["gen.open_p50_ms"]; ok {
		set("serve.wait_frac", 1-handlerP50*scale/us/p50.Value, handler.n, "1 - handler p50 / open-loop p50")
	}
	put := r.art.agg("serve.put")
	set("serve.put_handler_ms", med(put, msec), put.n, "")
	tail, note := h.putSamples()
	for _, p := range []float64{0.99, 0.9, 0.5} {
		if v, beyond, ok := percentile(tail, p); ok {
			m["serve.put_tail_ms"] = metricValue{Value: v, Unit: "ms", Samples: len(tail), Beyond: beyond, Note: fmt.Sprintf("p%g of %s", p*100, note)}
			break
		}
	}
	var rejected int64
	for name, v := range h.counters {
		if len(name) >= len("serve_rejected_total") && name[:len("serve_rejected_total")] == "serve_rejected_total" {
			rejected += v
		}
	}
	set("serve.rejected", float64(rejected), 1, "server counter")

	extractP := r.lay.agg("wrapper.extract")
	set("wrapper.extract_us", med(extractP, us), extractP.n, "")
	set("wrapper.extract_allocs", r.extractAllocs, extractP.n, "")
	set("wrapper.extract_kb", r.extractKB, extractP.n, "")
	batch := r.lay.agg("wrapper.batch")
	set("wrapper.batch_us_per_doc", frac(float64(batch.ns), float64(batch.Docs))/us, int(batch.Docs), "")
	stream := r.lay.agg("wrapper.stream")
	set("wrapper.stream_ms_per_mb", frac(float64(stream.ns)/msec, float64(stream.Bytes)/(1<<20)), stream.n, "")
	set("wrapper.stream_allocs", r.streamAllocs, stream.n, "")
	all := r.lay.agg("wrapper.extract_all")
	set("wrapper.extract_all_us", med(all, us), all.n, "")
	lc := r.art.agg("wrapper.load_cached")
	set("wrapper.load_cached_us", med(lc, us), lc.n, "")
	scan := r.lay.agg("htmltok.scan")
	set("wrapper.hit_frac", frac(float64(r.hits), float64(r.tried)), r.tried, "")

	mp := r.lay.agg("htmltok.map")
	feed := r.lay.agg("htmltok.feed")
	set("htmltok.scan_ns_per_byte", frac(float64(scan.ns), float64(scan.Bytes)), scan.n, "")
	ns, tokens, n := r.lay.pairedDiff("htmltok.map", "htmltok.scan")
	set("htmltok.map_ns_per_token", frac(ns, tokens), n, "Map minus Scan, per scanned token")
	set("htmltok.feed_ns_per_byte", frac(float64(feed.ns), float64(feed.Bytes)), feed.n, "")
	ns, tokens, n = r.lay.pairedDiff("htmltok.streamsym", "htmltok.feed")
	set("htmltok.streamsym_ns_per_token", frac(ns, tokens), n, "streamer with StreamSym minus streamer alone")
	set("htmltok.tokens_per_kb", frac(float64(mp.Tokens), float64(mp.Bytes)/1024), mp.n, "")
	set("htmltok.carry_frac", frac(float64(r.carries), float64(r.chunks)), int(r.chunks), "32 KB chunks")

	find := r.lay.agg("extract.find")
	sr := r.lay.agg("extract.streamrun")
	set("extract.find_ns_per_token", frac(float64(find.ns), float64(find.Tokens)), find.n, "")
	set("extract.streamrun_ns_per_token", frac(float64(sr.ns), float64(sr.Tokens)), sr.n, "")
	set("extract.live_threads_max", float64(r.liveMax), len(r.w.pages), "")
	comp := r.art.agg("extract.compile")
	set("extract.compile_ms", med(comp, msec), comp.n, "")
	dec := r.art.agg("extract.decode_artifact")
	set("extract.decode_artifact_us", med(dec, us), dec.n, "")
	encA := r.art.agg("extract.encode_artifact")
	set("extract.encode_artifact_us", med(encA, us), encA.n, "")
	cm := r.art.agg("extract.cache_mem")
	set("extract.cache_mem_us", med(cm, us), cm.n, "")
	cd := r.art.agg("extract.cache_disk")
	set("extract.cache_disk_us", med(cd, us), cd.n, "")
	tiers := map[string]float64{}
	var loads float64
	for _, tier := range []string{extract.TierMemory, extract.TierDisk, extract.TierCompile} {
		tiers[tier] = float64(h.counters[obs.WithLabels("extract_tiered_load_total", "tier", tier)])
		loads += tiers[tier]
	}
	set("extract.tier_mem_frac", frac(tiers[extract.TierMemory], loads), int(loads), "server counter")
	set("extract.tier_disk_frac", frac(tiers[extract.TierDisk], loads), int(loads), "server counter")
	set("extract.tier_compile_frac", frac(tiers[extract.TierCompile], loads), int(loads), "server counter")
	ph, pm := float64(h.counters["extract_stream_pool_hits_total"]), float64(h.counters["extract_stream_pool_misses_total"])
	set("extract.stream_pool_hit_frac", frac(ph, ph+pm), int(ph+pm), "server counter")
	set("extract.stream_fallback", float64(h.counters["extract_stream_fallback_total"]), 1, "server counter")

	run := r.lay.agg("spanner.run")
	enum := r.lay.agg("spanner.enum")
	set("spanner.run_ns_per_token", frac(float64(run.ns-enum.ns), float64(run.Tokens)), run.n, "")
	set("spanner.enum_ns_per_vector", frac(float64(enum.ns), float64(enum.Vectors)), int(enum.Vectors), "")
	set("spanner.nodes_per_token", frac(float64(run.Nodes), float64(run.Tokens)), run.n, "")
	set("spanner.vectors_per_doc", frac(float64(enum.Vectors), float64(run.n)), run.n, "")

	set("machine.subset_states_per_compile", frac(float64(r.subsetStates), float64(r.compiles)), r.compiles, "")

	stages := make([]float64, 0, handler.n)
	for i := range r.req.spans {
		if s := &r.req.spans[i]; s.Name == "replay.stages" {
			stages = append(stages, float64(s.dur()-s.SelfNS))
		}
	}
	set("recon.stage_frac", frac(median(stages), median(handler.durs)), len(stages), "stage self time / handler, medians")
	set("trace.overhead_frac", r.overhead, len(r.requests), "spans on / off, median of adjacent round pairs")
	return m
}
