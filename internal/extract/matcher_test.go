package extract

import (
	"fmt"
	"math/rand"
	"testing"

	"resilex/internal/symtab"
)

func TestMatcherTwoScanAgreesWithNaive(t *testing.T) {
	e := newTenv()
	exprs := []string{
		"q* <p> .*",
		"[^ p]* <p> .*",
		"(q p)* <p> .*",
		"p* <p> p*",
		". . <p> q",
		"(p | p p) <p> (p | p p)",
	}
	words := allWords(e.sigma2, 7)
	for _, src := range exprs {
		x := e.expr(t, src, e.sigma2)
		m, err := x.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			fast := m.All(w)
			slow := m.allNaive(w)
			if len(fast) != len(slow) {
				t.Fatalf("%q on %q: two-scan %v, naive %v", src, e.tab.String(w), fast, slow)
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("%q on %q: two-scan %v, naive %v", src, e.tab.String(w), fast, slow)
				}
			}
		}
	}
}

// The ablation: the two-scan matcher is linear in the document, the naive
// one quadratic around dense mark regions.
func BenchmarkMatcherAblation(b *testing.B) {
	tab := symtab.NewTable()
	p, q := tab.Intern("p"), tab.Intern("q")
	sigma := symtab.NewAlphabet(p, q)
	x := MustParse("[^ p]* <p> .*", tab, sigma)
	m, err := x.Compile()
	if err != nil {
		b.Fatal(err)
	}
	// Dense regime: every position passes the prefix test and the suffix
	// check cannot short-circuit, so the naive matcher is quadratic. The
	// sparse expression above lets naive short-circuit (included for
	// honesty: the two-scan wins only asymptotically / in dense regimes).
	dense := MustParse(".* <p> .*", tab, sigma)
	md, err := dense.Compile()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{100, 1000, 10000} {
		word := make([]symtab.Symbol, n)
		for i := range word {
			if rng.Intn(4) == 0 {
				word[i] = p
			} else {
				word[i] = q
			}
		}
		for _, mode := range []struct {
			name string
			m    *Matcher
		}{{"sparse", m}, {"dense", md}} {
			b.Run(fmt.Sprintf("%s/two-scan/n=%d", mode.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mode.m.All(word)
				}
			})
			b.Run(fmt.Sprintf("%s/naive/n=%d", mode.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mode.m.allNaive(word)
				}
			})
		}
	}
}

// TestStreamMatchesBatch: the one-pass matcher agrees with the two-scan
// matcher on Σ* suffixes and on a suffix that is not Σ*.
func TestStreamMatchesBatch(t *testing.T) {
	e := newTenv()
	words := allWords(e.sigma2, 7)
	for _, src := range []string{"[^ p]* <p> .*", "(q p)* <p> .*", "q* p q* <p> .*", "q* <p> q"} {
		checkStreamAgrees(t, e.expr(t, src, e.sigma2), words)
	}
}

// TestStreamForeignSymbol: an out-of-Σ token kills the prefix automaton, so
// no later p is a split point.
func TestStreamForeignSymbol(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "q* <p> .*", e.sigma2)
	sm, err := x.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	r := sm.Get(FindLeftmost)
	defer sm.Put(r)
	for _, sym := range []symtab.Symbol{e.q, e.r, e.p} {
		if r.Feed(sym) {
			t.Fatal("candidate born after a foreign symbol")
		}
	}
	if _, ok := r.Find(); ok {
		t.Error("Find ok after dead prefix")
	}
}
