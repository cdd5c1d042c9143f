package extract

import (
	"context"
	"math/rand"
	"testing"

	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// tokenFixtures are the E1–E12 fixture expressions over the small test
// alphabets: every expression exercised by the experiment suite at the token
// level — E1/E2 closed forms and Expression (10), the E5/E6 maximization
// inputs and outputs (including the exact Algorithm 6.2 output of Example
// 4.7), the E7 pivot family, the E11 middle-row expression, and the E12
// factoring shapes.
var tokenFixtures = []struct {
	src   string
	sigma int // 2 = {p,q}, 3 = {p,q,r}
}{
	{"q* <p> .*", 2},
	{"<p> p*", 2},
	{"p* <p> p*", 2},
	{"(p q)* <p> .*", 2},
	{"(q p)* <p> .*", 2},
	{"(p | p p) <p> (p | p p)", 2},
	{". . <p> q", 2},
	{"[^ p]* <p> .*", 2},
	{"q <p> q", 2},
	{"p <p> p p p", 2},
	{"p p <p> p p", 2},
	{"q p <p> q*", 2},
	{"q p <p> .*", 2},
	{"[^ p]* p <p> .*", 2},
	{"((q* - q) | q p q*) <p> .*", 2}, // Example 4.7, Algorithm 6.2 output
	{"[^ p]* p [^ p]* <p> .*", 2},
	{"(q p)* q <p> q*", 2},
	{"[^ p]* <p> .*", 3},
	{"(q | r)* <p> (q | r)*", 3},
	{"q* r <p> r q*", 3},
}

// htmlFixtures are the E1/E2 fixtures over the Figure 1 tag alphabet.
var htmlFixtures = []string{
	"[^ FORM]* FORM [^ INPUT]* INPUT [^ INPUT]* <INPUT> .*", // Section 3 closed form
	"P H1 /H1 P FORM INPUT <INPUT> P INPUT INPUT /FORM",     // rigid doc1 expression
	"FORM INPUT <INPUT> .*",
	"(TR | TR TR) <TR> (TR | TR TR)", // E11 middle row
	"TR <TR> TR*",
}

// checkStreamAgrees feeds every word through the one-pass StreamMatcher and
// demands that its Find agree with the two-scan Matcher's — the
// differential oracle of the streaming refactor.
func checkStreamAgrees(t *testing.T, x Expr, words [][]symtab.Symbol) {
	t.Helper()
	m, err := x.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := x.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		wantPos, wantOK := m.Find(w)
		gotPos, gotOK := sm.Find(w)
		if gotOK != wantOK || (wantOK && gotPos != wantPos) {
			t.Fatalf("Find on %v: stream %d,%v; two-pass %d,%v", w, gotPos, gotOK, wantPos, wantOK)
		}
	}
}

// TestStreamMatcherEquivalenceTokenFixtures sweeps every token-level fixture
// expression over all short words plus random longer ones; the one-pass
// matcher must agree with the two-scan matcher everywhere.
func TestStreamMatcherEquivalenceTokenFixtures(t *testing.T) {
	e := newTenv()
	words2 := allWords(e.sigma2, 6)
	words3 := allWords(e.sigma3, 5)
	rng := rand.New(rand.NewSource(43))
	randWords := func(sigma symtab.Alphabet) [][]symtab.Symbol {
		syms := sigma.Symbols()
		var out [][]symtab.Symbol
		for i := 0; i < 40; i++ {
			w := make([]symtab.Symbol, 7+rng.Intn(30))
			for j := range w {
				w[j] = syms[rng.Intn(len(syms))]
			}
			out = append(out, w)
		}
		return out
	}
	for _, f := range tokenFixtures {
		f := f
		t.Run(f.src, func(t *testing.T) {
			sigma, words := e.sigma2, words2
			if f.sigma == 3 {
				sigma, words = e.sigma3, words3
			}
			x := e.expr(t, f.src, sigma)
			checkStreamAgrees(t, x, append(words, randWords(sigma)...))
		})
	}
}

// TestStreamMatcherEquivalenceHTMLFixtures replays the Figure 1 documents —
// plus out-of-Σ and perturbed variants — through the HTML-level fixtures.
// The out-of-Σ cases are the load-bearing ones: an unknown tag anywhere in a
// suffix must kill every candidate whose suffix contains it, exactly as the
// two-pass backward sweep rejects it.
func TestStreamMatcherEquivalenceHTMLFixtures(t *testing.T) {
	h := newHTMLEnv()
	docs := [][]symtab.Symbol{
		h.doc(t, fig1Doc1),
		h.doc(t, fig1Doc2),
		h.doc(t, "TR TR TR"),
		h.doc(t, "TR TR"),
		h.doc(t, "FORM INPUT INPUT /FORM"),
		nil,
	}
	out := h.tab.Intern("BLINK")
	docs = append(docs, append(h.doc(t, fig1Doc1), out))
	withMid := append([]symtab.Symbol{}, h.doc(t, fig1Doc1)...)
	withMid[3] = out
	docs = append(docs, withMid)
	docs = append(docs, []symtab.Symbol{out})
	for _, src := range htmlFixtures {
		src := src
		t.Run(src, func(t *testing.T) {
			x, err := Parse(src, h.tab, h.sigma, machine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkStreamAgrees(t, x, docs)
		})
	}
}

// TestStreamMatcherAmbiguous: on an ambiguous expression, Find must report
// the leftmost of the direct oracle's valid positions.
func TestStreamMatcherAmbiguous(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "p* <p> p*", e.sigma2)
	sm, err := x.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWords(e.sigma2, 7) {
		got, ok := sm.Find(w)
		want := oracleSplits(x, w)
		if ok != (len(want) > 0) || ok && got != want[0] {
			t.Fatalf("on %v: stream Find %d,%v, oracle %v", w, got, ok, want)
		}
	}
}

// TestStreamRunIncremental: Feed reports candidate births, Live tracks the
// surviving candidate set, and results are stable before/after Put-Get
// recycling of a run.
func TestStreamRunIncremental(t *testing.T) {
	e := newTenv()
	// q* <p> q*: the single p in a sea of q's is the candidate.
	x := e.expr(t, "q* <p> q*", e.sigma2)
	sm, err := x.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	r := sm.Get(FindLeftmost)
	if born := r.Feed(e.q); born {
		t.Error("q reported as candidate birth")
	}
	if born := r.Feed(e.p); !born {
		t.Error("p after q* not reported as candidate birth")
	}
	if live := r.Live(nil); len(live) != 1 || live[0] != 1 {
		t.Errorf("Live = %v, want [1]", live)
	}
	r.Feed(e.q)
	if pos, ok := r.Find(); !ok || pos != 1 {
		t.Errorf("Find = %d,%v, want 1,true", pos, ok)
	}
	// A second p kills the first candidate's suffix (q* only) and is itself
	// stillborn as prefix "q p q" ∉ q*.
	if born := r.Feed(e.p); born {
		t.Error("second p reported as candidate birth")
	}
	if _, ok := r.Find(); ok {
		t.Error("Find succeeded after suffix violation")
	}
	if live := r.Live(nil); len(live) != 0 {
		t.Errorf("Live = %v, want empty", live)
	}
	sm.Put(r)
	// The recycled run starts fresh.
	r2 := sm.Get(FindLeftmost)
	r2.Feed(e.p)
	if pos, ok := r2.Find(); !ok || pos != 0 {
		t.Errorf("recycled run Find = %d,%v, want 0,true", pos, ok)
	}
	sm.Put(r2)
	// Get reuses a pooled run. The race detector makes sync.Pool.Put drop
	// items at random, so one Put→Get cycle may miss; repeat the cycle a
	// bounded number of times and still require a hit.
	hit := false
	for i := 0; !hit && i < 64; i++ {
		r3 := sm.Get(FindLeftmost)
		hit = r3 == r2
		sm.Put(r3)
		r2 = r3
	}
	if !hit {
		t.Error("Get never returned the run just Put")
	}
}

// TestStreamRunZeroAlloc: a warmed run processing a document in FindLeftmost
// mode — the serving configuration — must not allocate at all.
func TestStreamRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the warm path")
	}
	h := newHTMLEnv()
	x, err := Parse(htmlFixtures[0], h.tab, h.sigma, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := x.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	doc := h.doc(t, fig1Doc1)
	for i := 0; i < 1024; i++ { // a long document exercising steady state
		doc = append(doc, doc[i%12])
	}
	// Warm the pool.
	r := sm.Get(FindLeftmost)
	for _, sym := range doc {
		r.Feed(sym)
	}
	sm.Put(r)
	allocs := testing.AllocsPerRun(100, func() {
		r := sm.Get(FindLeftmost)
		for _, sym := range doc {
			r.Feed(sym)
		}
		_, _ = r.Find()
		sm.Put(r)
	})
	if allocs != 0 {
		t.Fatalf("warm streaming run allocated %.1f times per document, want 0", allocs)
	}
}

// TestStreamCompileErrors: CompileStream only flattens DFAs that already
// exist, so a stored context that has ended does not fail it; a Σ symbol id
// beyond the dense symbol-index bound is still reported.
func TestStreamCompileErrors(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "q* <p> .*", e.sigma2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.WithOptions(machine.Options{Ctx: ctx}).CompileStream(); err != nil {
		t.Errorf("CompileStream with a canceled stored context: %v", err)
	}
	far, err := Parse("q* <p> .*", e.tab, e.sigma2.With(symtab.Symbol(1<<20)), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := far.CompileStream(); err == nil {
		t.Error("CompileStream succeeded with a symbol id past the dense symbol-index bound")
	}
}

// FuzzStreamTwoPassEquiv is the streaming-vs-two-pass differential fuzz
// target: random words (including out-of-Σ bytes) through every fixture
// expression must produce identical Find answers from both matchers.
func FuzzStreamTwoPassEquiv(f *testing.F) {
	e := newTenv()
	type compiled struct {
		m  *Matcher
		sm *StreamMatcher
	}
	var fixtures []compiled
	for _, fx := range tokenFixtures {
		sigma := e.sigma2
		if fx.sigma == 3 {
			sigma = e.sigma3
		}
		x, err := Parse(fx.src, e.tab, sigma, machine.Options{})
		if err != nil {
			f.Fatal(err)
		}
		m, err := x.Compile()
		if err != nil {
			f.Fatal(err)
		}
		sm, err := x.CompileStream()
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, compiled{m, sm})
	}
	// A symbol outside every fixture alphabet: suffixes containing it are
	// invalid no matter what E2 says.
	alien := e.tab.Intern("alien")
	f.Add(uint8(0), []byte("pq"))
	f.Add(uint8(2), []byte("ppqp"))
	f.Add(uint8(14), []byte("qpp\x03q"))
	f.Add(uint8(19), []byte("qrprq"))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := fixtures[int(which)%len(fixtures)]
		word := make([]symtab.Symbol, len(data))
		for i, b := range data {
			switch b % 4 {
			case 0:
				word[i] = e.p
			case 1:
				word[i] = e.q
			case 2:
				word[i] = e.r
			default:
				word[i] = alien
			}
		}
		wantPos, wantOK := c.m.Find(word)
		gotPos, gotOK := c.sm.Find(word)
		if gotOK != wantOK || (wantOK && gotPos != wantPos) {
			t.Fatalf("Find: stream %d,%v; two-pass %d,%v on %v", gotPos, gotOK, wantPos, wantOK, word)
		}
	})
}
