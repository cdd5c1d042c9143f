package spanner

import (
	"reflect"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// fuzzExprs is the expression family the fuzzer draws from — k ranges over
// 1..3, with repeated marks, anchored gaps, and star-closed record shapes
// all represented.
var fuzzExprs = []string{
	".* <p> .*",
	"q* <p> q* <r> .*",
	".* <p> .* <r> .*",
	".* <p> .* <p> .*",
	"q <p> q",
	".* <p> .* <r> .* <p> .*",
	"(q p q r)* q <p> q <r> (q p q r)*",
	"[^ p]* <p> [^ p]*",
}

// FuzzSpannerOracleEquiv differentials the compiled one-pass multi-split
// program against the naive k-nested oracle on arbitrary short words: same
// vectors, same lexicographic order. The first byte picks two expressions
// (low bits the first, high bits the second); the rest spell the word over
// {p, q, r} plus symtab.None and an interned symbol outside Σ. The second
// program runs between two runs of the first, so each input also checks
// that a rerun on the arena and row memo its first run left behind, with
// another program's run in between, still agrees with the oracle.
func FuzzSpannerOracleEquiv(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{1, 1, 0, 1, 2})
	f.Add([]byte{2, 0, 1, 2, 0, 2})
	f.Add([]byte{3, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 2, 0, 1, 2, 0})
	f.Add([]byte{6, 1, 0, 1, 2, 1, 0, 1, 2})
	f.Add([]byte{7, 1, 0, 1})
	f.Add([]byte{0x16, 1, 0, 1, 2, 3, 1, 0, 1, 2})
	f.Add([]byte{0x61, 1, 0, 4, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tab := symtab.NewTable()
		syms := []symtab.Symbol{tab.Intern("p"), tab.Intern("q"), tab.Intern("r")}
		sigma := symtab.NewAlphabet(syms...)
		letters := append(syms, symtab.None, tab.Intern("x"))
		body := data[1:]
		if len(body) > 24 { // keep the O(n^k) oracle cheap
			body = body[:24]
		}
		word := make([]symtab.Symbol, len(body))
		for i, b := range body {
			word[i] = letters[int(b)%len(letters)]
		}
		parse := func(src string) *extract.Tuple {
			tp, err := extract.ParseTuple(src, tab, sigma, machine.Options{})
			if err != nil {
				t.Fatalf("ParseTuple(%q): %v", src, err)
			}
			return tp
		}
		run := func(src string, tp *extract.Tuple, prog *Program) {
			m, err := prog.Run(word)
			if err != nil {
				t.Fatalf("%q: Run: %v", src, err)
			}
			got, err := m.All()
			if err != nil {
				t.Fatalf("%q: All: %v", src, err)
			}
			if want := NaiveTuples(tp, word); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q on %v:\n spanner = %v\n oracle  = %v", src, word, got, want)
			}
		}
		first := fuzzExprs[int(data[0])%len(fuzzExprs)]
		second := fuzzExprs[int(data[0])/len(fuzzExprs)%len(fuzzExprs)]
		tp1, tp2 := parse(first), parse(second)
		p1, err := Compile(tp1, machine.Options{})
		if err != nil {
			t.Fatalf("Compile(%q): %v", first, err)
		}
		p2, err := Compile(tp2, machine.Options{})
		if err != nil {
			t.Fatalf("Compile(%q): %v", second, err)
		}
		run(first, tp1, p1)
		run(second, tp2, p2)
		run(first, tp1, p1)
	})
}
