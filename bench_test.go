// Benchmarks regenerating the experiment series of EXPERIMENTS.md — one
// benchmark (family) per experiment E1..E12. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times are machine-dependent; the *shapes* (polynomial vs
// exponential growth, who wins by what factor) are the reproduction target.
package resilex_test

import (
	"fmt"
	"math/rand"
	"testing"

	"resilex"
	"resilex/internal/bench"
	"resilex/internal/extract"
	"resilex/internal/lang"
	"resilex/internal/learn"
	"resilex/internal/machine"
	"resilex/internal/perturb"
	"resilex/internal/rx"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// --- E1: Figure 1 extraction throughput ------------------------------------

const benchPage1 = `<P><H1>Virtual Supplier, Inc.</H1><P>
<form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<input type="radio" name="attr" value="1" checked>
<input type="radio" name="attr" value="2">
</form>`

const benchPage2 = `<table>
<tr><td><h1>Virtual Supplier, Inc.</h1></td></tr>
<tr><td><a href="cust.html">Customer Service</a></td></tr>
<tr><td><form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<input type="radio" name="attr" value="1" checked>
</form></td></tr>
</table>`

func BenchmarkE1Figure1(b *testing.B) {
	w, err := resilex.Train([]resilex.Sample{
		{HTML: benchPage1, Target: resilex.TargetMarker()},
		{HTML: benchPage2, Target: resilex.TargetMarker()},
	}, resilex.Config{Skip: []string{"BR"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := resilex.Train([]resilex.Sample{
				{HTML: benchPage1, Target: resilex.TargetMarker()},
				{HTML: benchPage2, Target: resilex.TargetMarker()},
			}, resilex.Config{Skip: []string{"BR"}})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		b.SetBytes(int64(len(benchPage2)))
		for i := 0; i < b.N; i++ {
			if _, err := w.Extract(benchPage2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E2: the Section 7 pipeline ---------------------------------------------

func BenchmarkE2Section7(b *testing.B) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll(
		"P", "H1", "/H1", "FORM", "/FORM", "INPUT",
		"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "TH", "/TH", "IMG", "A", "/A")...)
	const expr10 = "((P H1 /H1 P) | (TABLE TR TH IMG /TH /TR TR TD H1 /H1 /TD /TR TR TD A /A /TD /TR TR TD)) " +
		"FORM INPUT <INPUT> .*"
	x, err := extract.Parse(expr10, tab, sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pivot-maximize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := extract.Pivot(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-algorithm-6.2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := extract.LeftFilter(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E3: ambiguity testing vs size (Theorem 5.6) ----------------------------

func BenchmarkE3Ambiguity(b *testing.B) {
	e := bench.NewEnv()
	for _, size := range []int{4, 8, 16, 32, 64, 128, 256} {
		rng := rand.New(rand.NewSource(int64(size)))
		x := e.UnambiguousExpr(size, rng)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := x.Unambiguous(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: maximality-testing blow-up (Theorem 5.12 / Lemma 5.9) --------------

func BenchmarkE4Maximality(b *testing.B) {
	e := bench.NewEnv()
	for _, n := range []int{2, 4, 6, 8, 10, 12, 14} {
		expr, sigma := e.PSPACEWitness(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nfa, err := machine.Compile(expr, sigma, machine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				d, err := machine.Determinize(nfa, machine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				// The universality check at the heart of Corollary 5.8.
				if machine.Minimize(d).IsUniversal() {
					b.Fatal("witness family is never universal")
				}
			}
		})
	}
}

// --- E5: non-unique maximization (Example 4.7) -------------------------------

func BenchmarkE5Maximize(b *testing.B) {
	e := bench.NewEnv()
	x, err := extract.Parse("q p <p> .*", e.Tab, e.Sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := extract.LeftFilter(x); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Algorithm 6.2 vs p-bound n (Proposition 6.5) ------------------------

func BenchmarkE6LeftFilter(b *testing.B) {
	e := bench.NewEnv()
	for _, n := range []int{0, 1, 2, 4, 8, 16} {
		x := e.BoundedPExpr(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := extract.LeftFilter(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: pivot maximization on the unbounded family --------------------------

func BenchmarkE7Pivot(b *testing.B) {
	e := bench.NewEnv()
	for _, k := range []int{1, 2, 4, 6} {
		x := e.PivotExpr(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := extract.Pivot(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: resilience scoring under the change model ---------------------------

func BenchmarkE8Resilience(b *testing.B) {
	tab := symtab.NewTable()
	base, err := rx.ParseWord("P H1 /H1 P FORM INPUT INPUT P INPUT INPUT /FORM", tab)
	if err != nil {
		b.Fatal(err)
	}
	p := perturb.New(tab, 3)
	sigma := symtab.NewAlphabet(base...).Union(p.Alphabet())
	w, err := wrapper.TrainTokens(tab, []learn.Example{{Doc: base, Target: 6}}, sigma, wrapper.Config{})
	if err != nil {
		b.Fatal(err)
	}
	type trial struct {
		doc []symtab.Symbol
		tgt int
	}
	var corpus []trial
	for i := 0; i < 1000; i++ {
		doc, tgt, _ := p.Apply(base, 6, 1+i%6)
		corpus = append(corpus, trial{doc, tgt})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := corpus[i%len(corpus)]
		w.ExtractTokens(tr.doc)
	}
}

// --- E9: the two unambiguity deciders ----------------------------------------

func BenchmarkE9TwoTests(b *testing.B) {
	e := bench.NewEnv()
	rng := rand.New(rand.NewSource(9))
	x := e.UnambiguousExpr(32, rng)
	marker := e.Tab.Intern("MARKSYM")
	b.Run("factoring-prop-5.4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := x.Unambiguous(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marker-prop-5.5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := x.UnambiguousMarker(marker); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E10: factoring cost (Lemma 5.2) ------------------------------------------

func BenchmarkE10Factoring(b *testing.B) {
	e := bench.NewEnv()
	for _, depth := range []int{2, 4, 6} {
		rng := rand.New(rand.NewSource(int64(depth)))
		l1, err := lang.FromRegex(e.RandomRegex(depth, rng), e.Sigma, machine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		l2, err := lang.FromRegex(e.RandomRegex(depth, rng), e.Sigma, machine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := l1.LeftFactor(l2); err != nil {
					b.Fatal(err)
				}
				if _, err := l1.RightFactor(l2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: middle-row extraction attempts --------------------------------------

func BenchmarkE11MiddleRow(b *testing.B) {
	tab := symtab.NewTable()
	tr := tab.Intern("TR")
	sigma := symtab.NewAlphabet(tr)
	x, err := extract.Parse("TR <TR> TR*", tab, sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := x.Compile()
	if err != nil {
		b.Fatal(err)
	}
	table := make([]symtab.Symbol, 1001)
	for i := range table {
		table[i] = tr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Find(table)
	}
}

// --- E13: tuple (multi-slot) extraction — library extension --------------------

func BenchmarkE13Tuple(b *testing.B) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll("P", "FORM", "/FORM", "INPUT", "TABLE", "/TABLE")...)
	tp, err := extract.ParseTuple("[^ FORM]* FORM [^ INPUT]* <INPUT> [^ INPUT]* <INPUT> .*",
		tab, sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	doc, err := rx.ParseWord("TABLE P FORM INPUT INPUT INPUT /FORM /TABLE", tab)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unambiguity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tp.Unambiguous(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := tp.Extract(doc); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
}

// --- minimization ablation: Hopcroft vs Brzozowski vs derivatives ---------------

func BenchmarkMinimizationAblation(b *testing.B) {
	e := bench.NewEnv()
	two := symtab.NewAlphabet(e.Tab.Lookup("p"), e.Tab.Lookup("q"))
	for _, n := range []int{4, 8} {
		expr, _ := e.PSPACEWitness(n)
		nfa, err := machine.Compile(expr, two, machine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		d, err := machine.Determinize(nfa, machine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("hopcroft/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				machine.Minimize(d)
			}
		})
		b.Run(fmt.Sprintf("brzozowski/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := machine.MinimizeBrzozowski(d, machine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("derivative-dfa/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dd, err := machine.DeterminizeDerivatives(expr, two, machine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				machine.Minimize(dd)
			}
		})
	}
}

// --- streaming vs batch extraction (ablation) -----------------------------------

func BenchmarkStreaming(b *testing.B) {
	tab := symtab.NewTable()
	p, q := tab.Intern("p"), tab.Intern("q")
	sigma := symtab.NewAlphabet(p, q)
	x, err := extract.Parse("[^ p]* <p> .*", tab, sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := x.Compile()
	if err != nil {
		b.Fatal(err)
	}
	sm, err := x.CompileStream()
	if err != nil {
		b.Fatal(err)
	}
	word := make([]symtab.Symbol, 10000)
	for i := range word {
		word[i] = q
	}
	word[9000] = p
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Find(word)
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := sm.Get(extract.FindLeftmost)
			for _, sym := range word {
				r.Feed(sym)
			}
			r.Find()
			sm.Put(r)
		}
	})
}

// --- E12: factoring-algebra identities (Lemma 6.3) -----------------------------

func BenchmarkE12Identities(b *testing.B) {
	e := bench.NewEnv()
	l1, err := lang.Parse("(q p)* q", e.Tab, e.Sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	l2, err := lang.Parse("q* p q*", e.Tab, e.Sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pss, err := lang.Parse("p .*", e.Tab, e.Sigma, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// (E1+E2)/(p·Σ*) = E1/(p·Σ*) + E2/(p·Σ*)
		u, err := l1.Union(l2)
		if err != nil {
			b.Fatal(err)
		}
		lhs, err := u.RightFactor(pss)
		if err != nil {
			b.Fatal(err)
		}
		a, _ := l1.RightFactor(pss)
		c, _ := l2.RightFactor(pss)
		rhs, _ := a.Union(c)
		if !lhs.Equal(rhs) {
			b.Fatal("Lemma 6.3(1) violated")
		}
	}
}
