package machine

import (
	"math/rand"
	"testing"

	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// equivCases are the regexes the determinization and codec tests sweep; they
// cover every operator the compiler emits, including the extended ones.
var equivCases = []string{
	"#empty",
	"#eps",
	"p",
	"p q r",
	"p | q",
	"(p | q)* p",
	"[^ p]* p [^ p]*",
	"(p q)+ r?",
	"(p | q)* p (p | q) (p | q)", // PSPACE witness shape, n=2
	"(p q | q p)* r",
	"(p | q)* - (q p*)",
	"(p | q)* & (q | p q)*",
	"!(p q)*",
}

func enumWords(sigma []symtab.Symbol, maxLen int) [][]symtab.Symbol {
	out := [][]symtab.Symbol{nil}
	frontier := [][]symtab.Symbol{nil}
	for l := 0; l < maxLen; l++ {
		var next [][]symtab.Symbol
		for _, w := range frontier {
			for _, s := range sigma {
				ext := append(append([]symtab.Symbol(nil), w...), s)
				next = append(next, ext)
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

// TestDeterminizeEquivalence checks that the eager Determinize+Minimize
// pipeline accepts exactly the words the NFA's direct subset simulation
// accepts, over every word up to length 5 plus a random batch of longer ones.
func TestDeterminizeEquivalence(t *testing.T) {
	for _, src := range equivCases {
		src := src
		t.Run(src, func(t *testing.T) {
			tab := symtab.NewTable()
			sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
			ast, err := rx.Parse(src, tab, sigma)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			nfa, err := Compile(ast, sigma, Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			dfa := Minimize(mustDeterminize(t, nfa))
			words := enumWords(sigma.Symbols(), 5)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				w := make([]symtab.Symbol, 6+rng.Intn(20))
				for j := range w {
					w[j] = sigma.Symbols()[rng.Intn(sigma.Len())]
				}
				words = append(words, w)
			}
			for _, w := range words {
				if got, want := dfa.Accepts(w), nfa.Accepts(w); got != want {
					t.Fatalf("DFA=%v NFA=%v on %v", got, want, w)
				}
			}
			if n := dfa.NumStates(); n > 1<<12 {
				t.Fatalf("state explosion: %d states", n)
			}
		})
	}
}

func mustDeterminize(t *testing.T, n *NFA) *DFA {
	t.Helper()
	d, err := Determinize(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// FuzzDeterminizeEquiv fuzzes (expression, word) pairs: whenever the
// expression compiles and its determinization fits the budget, the minimal
// DFA must accept exactly the words the NFA accepts, and Determinize and
// Minimize must build the reference kernels' automata state for state.
func FuzzDeterminizeEquiv(f *testing.F) {
	for _, c := range equivCases {
		f.Add(c, []byte{0, 1, 2, 0, 1})
	}
	f.Add("(p | q)* p (p | q)", []byte{0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, src string, raw []byte) {
		tab := symtab.NewTable()
		sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
		ast, err := rx.Parse(src, tab, sigma)
		if err != nil {
			return
		}
		opt := Options{MaxStates: 1 << 12}
		nfa, err := Compile(ast, sigma, opt)
		if err != nil {
			return
		}
		d, err := Determinize(nfa, opt)
		ref, refErr := referenceDeterminize(nfa, opt)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Determinize err %v, reference err %v on %q", err, refErr, src)
		}
		if err != nil {
			return
		}
		dfa := Minimize(d)
		if !StructurallyEqual(d, ref) {
			t.Fatalf("Determinize differs from the reference on %q", src)
		}
		refMin, err := referenceMinimizeOpt(ref, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !StructurallyEqual(dfa, refMin) {
			t.Fatalf("Minimize differs from the reference on %q", src)
		}
		word := make([]symtab.Symbol, 0, len(raw))
		for _, b := range raw {
			word = append(word, sigma.Symbols()[int(b)%sigma.Len()])
		}
		if got, want := dfa.Accepts(word), nfa.Accepts(word); got != want {
			t.Fatalf("DFA=%v NFA=%v on %q / %v", got, want, src, word)
		}
	})
}
