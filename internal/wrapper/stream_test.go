package wrapper

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"resilex/internal/extract"
	"resilex/internal/learn"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

// chunkReader yields at most chunk bytes per Read, forcing constructs to
// straddle boundaries.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func trainFig1(t *testing.T) *Wrapper {
	t.Helper()
	w, err := Train([]Sample{
		{HTML: fig1Top, Target: TargetMarker()},
		{HTML: fig1Bottom, Target: TargetMarker()},
	}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStreamMatchesExtract: on every Figure 1 page (trained and novel) and
// at every chunk granularity, the streaming path must return exactly the
// region the materialized Extract path does.
func TestStreamMatchesExtract(t *testing.T) {
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []string{fig1Top, fig1Bottom, fig1Novel} {
		want, err := w.Extract(page)
		if err != nil {
			t.Fatalf("materialized Extract failed: %v", err)
		}
		for _, chunk := range []int{1, 3, 7, 64, 1 << 20} {
			got, err := se.ExtractReader(context.Background(), &chunkReader{data: []byte(page), chunk: chunk})
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if got != want {
				t.Fatalf("chunk %d: stream %+v, materialized %+v", chunk, got, want)
			}
		}
	}
}

// TestStreamRejectsLikeExtract: pages the wrapper does not parse fail with
// ErrNotExtracted on both paths — including pages with never-seen tags,
// which streaming resolves to out-of-Σ None symbols instead of interning.
func TestStreamRejectsLikeExtract(t *testing.T) {
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []string{
		"<html><body>no form here</body></html>",
		"<BLINK>" + fig1Top, // out-of-Σ prefix
		"",
	} {
		_, werr := w.Extract(page)
		_, serr := se.ExtractReader(context.Background(), strings.NewReader(page))
		if !errors.Is(werr, ErrNotExtracted) || !errors.Is(serr, ErrNotExtracted) {
			t.Fatalf("page %.30q: materialized err %v, stream err %v", page, werr, serr)
		}
	}
}

// TestStreamLargePageConstantState: a multi-megabyte page made of repeated
// filler rows must extract correctly while the capture arena stays bounded —
// the O(1)-beyond-match-region claim at the wrapper level.
func TestStreamLargePageConstantState(t *testing.T) {
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	// Pad the real trained page with filler rows (tags all within Σ) before
	// its form row, keeping a page the expression still parses.
	formAt := strings.Index(fig1Bottom, "<tr><td><form")
	if formAt < 0 {
		t.Fatal("fig1Bottom lost its form row")
	}
	var b strings.Builder
	b.WriteString(fig1Bottom[:formAt])
	for i := 0; i < 25000; i++ {
		b.WriteString("<tr><td><a href=\"cust.html\">filler row</a></td></tr>\n")
	}
	b.WriteString(fig1Bottom[formAt:])
	page := b.String()
	if len(page) < 1<<20 {
		t.Fatalf("test page only %d bytes", len(page))
	}
	want, err := w.Extract(page)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.ExtractReader(context.Background(), strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stream %+v, materialized %+v", got, want)
	}
	// The pooled session retains buffers proportional to tokens/candidates
	// in flight, not to the page: its capture arena must be tiny.
	s := se.get()
	if cap(s.src) > 1<<16 {
		t.Errorf("capture arena grew to %d bytes on a %d-byte page", cap(s.src), len(page))
	}
	se.put(s)
}

// TestStreamZeroAllocWarm: the warm streaming serve path — pooled session,
// registered metrics — performs zero allocations per extraction.
func TestStreamZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the warm path")
	}
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.NewContext(context.Background(), obs.New())
	page := []byte(fig1Bottom)
	rd := bytes.NewReader(page)
	sink := 0
	extract := func(sr StreamRegion) error {
		sink += sr.TokenIndex
		return nil
	}
	for i := 0; i < 4; i++ { // warm pool, counters, histogram buckets
		rd.Reset(page)
		if err := se.ExtractReaderTo(ctx, rd, extract); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(page)
		if err := se.ExtractReaderTo(ctx, rd, extract); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm streaming extraction allocated %.1f times per page, want 0", allocs)
	}
}

// TestStreamMetrics: one extraction over a chunked reader bumps the
// extract_stream_* counter family.
func TestStreamMetrics(t *testing.T) {
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	if _, err := se.ExtractReader(ctx, &chunkReader{data: []byte(fig1Top), chunk: 5}); err != nil {
		t.Fatal(err)
	}
	if v := o.Counter("extract_stream_runs_total").Value(); v != 1 {
		t.Errorf("runs = %d, want 1", v)
	}
	if v := o.Counter("extract_stream_chunks_total").Value(); v < 10 {
		t.Errorf("chunks = %d, want many for a 5-byte chunk reader", v)
	}
	if v := o.Counter("extract_stream_carry_total").Value(); v < 1 {
		t.Errorf("carries = %d, want ≥ 1 with 5-byte chunks", v)
	}
	if v := o.Counter("extract_stream_bytes_total").Value(); v != int64(len(fig1Top)) {
		t.Errorf("bytes = %d, want %d", v, len(fig1Top))
	}
	if v := o.Counter("extract_stream_pool_misses_total").Value(); v != 1 {
		t.Errorf("pool misses = %d, want 1", v)
	}
}

// TestStreamContextCancel: a canceled context aborts between chunks.
func TestStreamContextCancel(t *testing.T) {
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.ExtractReader(ctx, strings.NewReader(fig1Top)); err == nil {
		t.Fatal("extraction succeeded under a canceled context")
	}
}

// readerFunc adapts a function to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestExtractReaderToPoolHygiene: a stream extraction that ends early — a
// reader error right after a chunk that ends inside a tag name, a context
// cancelled between chunks, an error from fn, a panic in fn — puts a
// session back that the next ExtractReaderTo on the same extractor reuses
// cleanly. Every fault strikes a longer page than the checks that follow:
// fig1Bottom with its whitespace widened, whose tokens sit at fig1Bottom's
// positions with other spans. A session that kept its carried bytes, token
// positions or captures would show it.
func TestExtractReaderToPoolHygiene(t *testing.T) {
	w := trainFig1(t)
	se, err := w.Stream()
	if err != nil {
		t.Fatal(err)
	}
	big := strings.ReplaceAll(fig1Bottom, "\n", "\n"+strings.Repeat(" ", 4000))
	checks := []string{fig1Top, fig1Bottom, fig1Novel, "<html><body>no form here</body></html>"}
	matchesExtract := func(t *testing.T) {
		t.Helper()
		for i, page := range checks {
			want, werr := w.Extract(page)
			got, err := se.ExtractReader(context.Background(), &chunkReader{data: []byte(page), chunk: 7})
			if got != want || (werr == nil) != (err == nil) || werr != nil && !errors.Is(err, ErrNotExtracted) {
				t.Errorf("page %d: stream %+v, %v; Extract %+v, %v", i, got, err, want, werr)
			}
		}
	}
	matchesExtract(t)
	called := func(StreamRegion) error {
		t.Error("fn called on a failed extraction")
		return nil
	}

	t.Run("reader-error-in-tag-name", func(t *testing.T) {
		cut := strings.LastIndex(big, "<form") + len("<fo")
		cr := &chunkReader{data: []byte(big[:cut]), chunk: 4096}
		reset := errors.New("connection reset")
		r := readerFunc(func(p []byte) (int, error) {
			if n, err := cr.Read(p); err != io.EOF {
				return n, err
			}
			return 0, reset
		})
		if err := se.ExtractReaderTo(context.Background(), r, called); !errors.Is(err, reset) {
			t.Fatalf("reader error: %v, want it wrapped", err)
		}
		matchesExtract(t)
	})
	t.Run("cancel-between-chunks", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cr := &chunkReader{data: []byte(big), chunk: 4096}
		reads := 0
		r := readerFunc(func(p []byte) (int, error) {
			if reads++; reads == 3 {
				cancel()
			}
			return cr.Read(p)
		})
		err := se.ExtractReaderTo(ctx, r, called)
		if !errors.Is(err, context.Canceled) || !errors.Is(err, machine.ErrDeadline) || reads != 3 {
			t.Fatalf("after %d reads: %v, want a deadline error after 3", reads, err)
		}
		matchesExtract(t)
	})
	t.Run("fn-error", func(t *testing.T) {
		stop := errors.New("stop")
		n := 0
		err := se.ExtractReaderTo(context.Background(), strings.NewReader(big), func(StreamRegion) error {
			n++
			return stop
		})
		if err != stop || n != 1 {
			t.Fatalf("fn called %d times: %v, want fn's own error once", n, err)
		}
		matchesExtract(t)
	})
	t.Run("fn-panic", func(t *testing.T) {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want fn's panic", r)
				}
			}()
			se.ExtractReaderTo(context.Background(), strings.NewReader(big), func(StreamRegion) error { panic("boom") })
		}()
		matchesExtract(t)
	})
}

// TestStreamAfterLoadContextEnds: the stream compile does not poll the
// context the wrapper was loaded under, so a wrapper loaded inside a request
// still streams once that request is over.
func TestStreamAfterLoadContextEnds(t *testing.T) {
	data, err := trainFig1(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w, err := Load(data, machine.Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	se, err := w.Stream()
	if err != nil {
		t.Fatalf("Stream after the load context ended: %v", err)
	}
	want, err := w.Extract(fig1Top)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.ExtractReader(context.Background(), strings.NewReader(fig1Top))
	if err != nil || got != want {
		t.Fatalf("stream %+v, %v; materialized %+v", got, err, want)
	}
}

// TestStreamWideAutomaton: a wrapper whose prefix DFA has 2^16 = 65,536
// states, past the old uint16 dense-table limit, streams, and the one-pass
// answers equal Extract's on seeded random pages.
func TestStreamWideAutomaton(t *testing.T) {
	const n = 16 // the witness (P|Q)* P (P|Q)^(n-1): its minimal DFA has 2^n states
	expr := "(P | Q)* P" + strings.Repeat(" (P | Q)", n-1) + " <P> .*"
	data, err := json.Marshal(persisted{Version: 1, Expr: expr, Sigma: []string{"P", "Q"}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Load(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Expr().Left().States(); got != 1<<n {
		t.Fatalf("prefix DFA has %d states, want %d", got, 1<<n)
	}
	se, err := w.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		var page strings.Builder
		for j := 10 + rng.Intn(60); j > 0; j-- {
			switch r := rng.Intn(50); {
			case r == 0:
				page.WriteString("<b>") // outside Σ
			case r%2 == 0:
				page.WriteString("<p>")
			default:
				page.WriteString("<q>")
			}
		}
		want, werr := w.Extract(page.String())
		got, serr := se.ExtractReader(context.Background(), strings.NewReader(page.String()))
		if (werr == nil) != (serr == nil) || got != want {
			t.Fatalf("page %q: stream %+v, %v; materialized %+v, %v", page.String(), got, serr, want, werr)
		}
	}
}

// TestStreamMetricsPerExtraction: every extraction that takes a session
// records its own extract_stream_* counters, against its own observer,
// whether it finishes or fails. Three extractions that fail on a reader
// error count three runs, their bytes and chunks, and one pool hit or miss
// each; a later extraction under another observer counts only its own
// session.
func TestStreamMetricsPerExtraction(t *testing.T) {
	se, err := trainFig1(t).Stream()
	if err != nil {
		t.Fatal(err)
	}
	a, b := obs.New(), obs.New()
	reset := errors.New("connection reset")
	for i := 0; i < 3; i++ {
		cr := &chunkReader{data: []byte(fig1Top), chunk: 64}
		r := readerFunc(func(p []byte) (int, error) {
			if n, err := cr.Read(p); err != io.EOF {
				return n, err
			}
			return 0, reset
		})
		err := se.ExtractReaderTo(obs.NewContext(context.Background(), a), r, func(StreamRegion) error {
			t.Error("fn called on a failed extraction")
			return nil
		})
		if !errors.Is(err, reset) {
			t.Fatalf("extraction %d: %v, want the reader error", i, err)
		}
	}
	pool := func(o *obs.Observer) int64 {
		return o.Counter("extract_stream_pool_hits_total").Value() + o.Counter("extract_stream_pool_misses_total").Value()
	}
	if v := a.Counter("extract_stream_runs_total").Value(); v != 3 {
		t.Errorf("failed runs counted %d, want 3", v)
	}
	if v := a.Counter("extract_stream_bytes_total").Value(); v != 3*int64(len(fig1Top)) {
		t.Errorf("failed runs' bytes = %d, want %d", v, 3*len(fig1Top))
	}
	if v := a.Counter("extract_stream_chunks_total").Value(); v < 3 {
		t.Errorf("failed runs' chunks = %d, want at least 3", v)
	}
	if v := pool(a); v != 3 {
		t.Errorf("failed runs' pool hits + misses = %d, want 3", v)
	}
	if _, err := se.ExtractReader(obs.NewContext(context.Background(), b), strings.NewReader(fig1Top)); err != nil {
		t.Fatal(err)
	}
	if v := pool(b); v != 1 {
		t.Errorf("one run's pool hits + misses = %d, want 1", v)
	}
}

// TestEveryWrapperStreams: every way to build a *Wrapper yields one whose
// stream extractor was built with it, and whose stream route answers as
// Extract does, on a page it parses and on one it misses.
func TestEveryWrapperStreams(t *testing.T) {
	trained := trainFig1(t)
	data, err := trained.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	future := Sample{HTML: fig1Future, Target: TargetMarker()}

	tab := symtab.NewTable()
	mapper := fig1Config().mapper(tab)
	var examples []learn.Example
	var sigma symtab.Alphabet
	for _, page := range []string{fig1Top, fig1Bottom} {
		doc := mapper.Map(page)
		idx, err := resolveTarget(doc, Sample{HTML: page, Target: TargetMarker()}, tab)
		if err != nil {
			t.Fatal(err)
		}
		examples = append(examples, learn.Example{Doc: doc.Syms, Target: idx})
		sigma = sigma.Union(doc.Alphabet())
	}
	cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	fleet, err := LoadFleet([]byte(`{"version":1,"kind":"fleet","wrappers":{"shop":`+string(data)+`}}`), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	builds := []struct {
		name  string
		build func() (*Wrapper, error)
	}{
		{"Train", func() (*Wrapper, error) { return trainFig1(t), nil }},
		{"TrainTokens", func() (*Wrapper, error) { return TrainTokens(tab, examples, sigma, fig1Config()) }},
		{"Refresh/re-induction", func() (*Wrapper, error) { return trained.Refresh(future) }},
		{"Refresh/rigid-widening", func() (*Wrapper, error) { return loaded.Refresh(future) }},
		{"RefreshContext", func() (*Wrapper, error) { return trained.RefreshContext(ctx, future) }},
		{"WithOptions", func() (*Wrapper, error) { return trained.WithOptions(machine.Options{MaxStates: 1 << 16}), nil }},
		{"Load", func() (*Wrapper, error) { return Load(data, machine.Options{}) }},
		{"LoadCached/miss", func() (*Wrapper, error) { return LoadCached(data, machine.Options{}, cache) }},
		{"LoadCached/hit", func() (*Wrapper, error) {
			w, err := LoadCached(data, machine.Options{}, cache)
			if s := cache.Stats(); s.Misses != 1 || s.Hits != 1 {
				t.Errorf("cache stats %+v, want one miss then one hit", s)
			}
			return w, err
		}},
		{"LoadAny", func() (*Wrapper, error) {
			w, err := LoadAny(context.Background(), data, machine.Options{}, nil)
			if err != nil {
				return nil, err
			}
			return w.(*Wrapper), nil
		}},
		{"LoadFleet", func() (*Wrapper, error) { return fleet.Get("shop"), nil }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			w, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			se, err := w.Stream()
			if se == nil || err != nil {
				t.Fatalf("Stream() = %v, %v; want an extractor and no error", se, err)
			}
			for _, page := range []string{fig1Top, "<html><body>no form here</body></html>"} {
				want, werr := w.Extract(page)
				got, serr := se.ExtractReader(context.Background(), strings.NewReader(page))
				if got != want || (werr == nil) != (serr == nil) || werr != nil && !errors.Is(serr, ErrNotExtracted) {
					t.Errorf("page %.20q: stream %+v, %v; Extract %+v, %v", page, got, serr, want, werr)
				}
			}
		})
	}
}
