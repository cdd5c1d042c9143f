package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"resilex/internal/extract"
	"resilex/internal/lang"
	"resilex/internal/learn"
	"resilex/internal/machine"
	"resilex/internal/perturb"
	"resilex/internal/rx"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim the experiment validates
	Header []string
	Rows   [][]string
	// Phases carries the experiment's observed phase-counter deltas (subset
	// states explored, minimization passes, deadline polls, ...) when the
	// harness runs with an observer; see PhaseDelta.
	Phases map[string]int64 `json:",omitempty"`
	// Host is where the table was measured; WriteJSON stamps it.
	Host *Host `json:",omitempty"`
}

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// E3Ambiguity measures the ambiguity-test runtime over expression size
// (Theorem 5.6: polynomial, quadratic in the expression).
func E3Ambiguity(sizes []int, trials int, seed int64) Table {
	e := NewEnv()
	rng := rand.New(rand.NewSource(seed))
	t := Table{
		ID:     "E3",
		Title:  "ambiguity testing vs expression size",
		Claim:  "Theorem 5.6: deciding ambiguity is polynomial (quadratic) time",
		Header: []string{"size", "dfa-states", "unambig µs/op", "ambig µs/op"},
	}
	for _, size := range sizes {
		var duA, duU time.Duration
		states := 0
		for i := 0; i < trials; i++ {
			xu := e.UnambiguousExpr(size, rng)
			xa := e.AmbiguousExpr(size, rng)
			states += xu.Size()
			start := time.Now()
			if ok, err := xu.Unambiguous(); err != nil || !ok {
				panic(fmt.Sprintf("E3: generator broke: %v %v", ok, err))
			}
			duU += time.Since(start)
			start = time.Now()
			if ok, err := xa.Unambiguous(); err != nil || ok {
				panic(fmt.Sprintf("E3: generator broke: %v %v", ok, err))
			}
			duA += time.Since(start)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size),
			fmt.Sprint(states / trials),
			fmt.Sprintf("%.1f", float64(duU.Microseconds())/float64(trials)),
			fmt.Sprintf("%.1f", float64(duA.Microseconds())/float64(trials)),
		})
	}
	return t
}

// E4Maximality measures the determinization blow-up behind maximality
// testing on the Lemma 5.9 witness family (Theorem 5.12: PSPACE-complete).
func E4Maximality(ns []int) Table {
	e := NewEnv()
	t := Table{
		ID:     "E4",
		Title:  "maximality testing blow-up on (p|q)*·p·(p|q)^n",
		Claim:  "Theorem 5.12 via Lemma 5.9: testing maximality is PSPACE-complete; the witness family forces 2^(n+1) DFA states",
		Header: []string{"n", "nfa-states", "min-dfa-states", "2^(n+1)", "time ms"},
	}
	for _, n := range ns {
		expr, sigma := e.PSPACEWitness(n)
		start := time.Now()
		nfa, err := machine.Compile(expr, sigma, DefaultOptions)
		if err != nil {
			panic(err)
		}
		d, err := machine.Determinize(nfa, DefaultOptions)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(nfa.NumStates()), "budget!", fmt.Sprint(1 << (n + 1)), "-"})
			continue
		}
		m := machine.Minimize(d)
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(nfa.NumStates()), fmt.Sprint(m.NumStates()),
			fmt.Sprint(1 << (n + 1)), ms(el),
		})
	}
	return t
}

// E5Nonunique demonstrates Example 4.7: two (in fact infinitely many)
// distinct maximal generalizations of qp⟨p⟩Σ*.
func E5Nonunique() Table {
	e := NewEnv()
	t := Table{
		ID:     "E5",
		Title:  "non-uniqueness of maximization for qp⟨p⟩Σ*",
		Claim:  "Example 4.7: maximization is not unique; an infinite family of maximal generalizations exists",
		Header: []string{"generalization", "unambiguous", "maximal", "distinct-from-first"},
	}
	in, err := extract.Parse("q p <p> .*", e.Tab, e.Sigma, DefaultOptions)
	if err != nil {
		panic(err)
	}
	algo, err := extract.LeftFilter(in)
	if err != nil {
		panic(err)
	}
	manual, err := extract.Parse("[^ p]* p [^ p]* <p> .*", e.Tab, e.Sigma, DefaultOptions)
	if err != nil {
		panic(err)
	}
	for i, x := range []extract.Expr{algo, manual} {
		u, _ := x.Unambiguous()
		m, _ := x.Maximal()
		distinct := "-"
		if i > 0 {
			distinct = fmt.Sprint(!x.Equal(algo))
		}
		t.Rows = append(t.Rows, []string{x.String(e.Tab), fmt.Sprint(u), fmt.Sprint(m), distinct})
	}
	return t
}

// E6LeftFilter measures Algorithm 6.2 over the p-bound n.
func E6LeftFilter(ns []int) Table {
	e := NewEnv()
	t := Table{
		ID:     "E6",
		Title:  "left-filtering maximization (Algorithm 6.2) vs p-bound n",
		Claim:  "Proposition 6.5: the output is maximal and unambiguous; the loop runs n+1 times",
		Header: []string{"n", "input-states", "output-states", "maximal", "time ms"},
	}
	for _, n := range ns {
		x := e.BoundedPExpr(n)
		start := time.Now()
		out, err := extract.LeftFilter(x)
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		m, err := out.Maximal()
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(x.Size()), fmt.Sprint(out.Size()),
			fmt.Sprint(m), ms(el),
		})
	}
	return t
}

// E7Pivot compares pivot maximization against plain left-filtering on the
// unbounded-p pivot family (where left-filtering must fail) and, on the
// Section 7 expression, compares the two algorithms' output sizes.
func E7Pivot(ks []int) Table {
	e := NewEnv()
	t := Table{
		ID:     "E7",
		Title:  "pivot maximization vs plain Algorithm 6.2",
		Claim:  "Section 6: pivoting is strictly more powerful (handles unbounded p); Section 7: direct Algorithm 6.2 output is much larger",
		Header: []string{"k (pivot blocks)", "left-filter", "pivot", "pivot-out-states", "time ms"},
	}
	for _, k := range ks {
		x := e.PivotExpr(k)
		_, lfErr := extract.LeftFilter(x)
		lf := "ok"
		if lfErr != nil {
			lf = "unbounded"
		}
		start := time.Now()
		out, err := extract.Pivot(x)
		el := time.Since(start)
		pv := "ok"
		states := "-"
		if err != nil {
			pv = err.Error()
		} else {
			states = fmt.Sprint(out.Size())
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), lf, pv, states, ms(el)})
	}
	return t
}

// E8Resilience scores the three wrapper variants (rigid, merged, maximized)
// over seeded perturbation corpora of increasing edit count — the paper's
// "preliminary experiments" claim rebuilt on the synthetic change model.
func E8Resilience(edits []int, trialsPerEdit int, seed int64) Table {
	tab := symtab.NewTable()
	t := Table{
		ID:     "E8",
		Title:  "wrapper resilience under the Section 3 change model",
		Claim:  "Section 1: maximized expressions provide resilient extraction; resilience orders rigid ≤ merged ≤ maximized",
		Header: []string{"edits", "rigid %", "merged %", "maximized %"},
	}
	base, err := rx.ParseWord("P H1 /H1 P FORM INPUT INPUT P INPUT INPUT /FORM", tab)
	if err != nil {
		panic(err)
	}
	target := 6
	variant, err := rx.ParseWord("TABLE TR TD FORM INPUT INPUT P INPUT INPUT /FORM /TD /TR /TABLE", tab)
	if err != nil {
		panic(err)
	}
	p := perturb.New(tab, seed)
	sigma := symtab.NewAlphabet(base...).Union(symtab.NewAlphabet(variant...)).Union(p.Alphabet())
	examples := []learn.Example{{Doc: base, Target: target}, {Doc: variant, Target: 5}}

	rigid, err := wrapper.TrainTokens(tab, examples[:1], sigma, wrapper.Config{SkipMaximize: true})
	if err != nil {
		panic(err)
	}
	merged, err := wrapper.TrainTokens(tab, examples, sigma, wrapper.Config{SkipMaximize: true})
	if err != nil {
		panic(err)
	}
	maxed, err := wrapper.TrainTokens(tab, examples, sigma, wrapper.Config{})
	if err != nil {
		panic(err)
	}
	for _, n := range edits {
		type trial struct {
			doc []symtab.Symbol
			tgt int
		}
		var corpus []trial
		for i := 0; i < trialsPerEdit; i++ {
			doc, tgt, _ := p.Apply(base, target, n)
			corpus = append(corpus, trial{doc, tgt})
		}
		pct := func(w *wrapper.Wrapper) string {
			hits := 0
			for _, tr := range corpus {
				if got, ok := w.ExtractTokens(tr.doc); ok && got == tr.tgt {
					hits++
				}
			}
			return fmt.Sprintf("%.1f", 100*float64(hits)/float64(len(corpus)))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), pct(rigid), pct(merged), pct(maxed)})
	}
	return t
}

// E8HTML is the HTML-level variant of E8: wrappers trained on pages from
// the synthetic catalog-site generator, scored on fresh pages from layout
// generators with increasingly different conventions (the "same site,
// ongoing redesigns" scenario).
func E8HTML(trainPages, testPages int, seed int64) Table {
	tab := symtab.NewTable()
	g := NewSiteGenerator(tab, seed)
	t := Table{
		ID:     "E8h",
		Title:  "wrapper generalization across generated catalog layouts",
		Claim:  "Section 1: maximized wrappers extract from layout variants never seen in training",
		Header: []string{"wrapper", "strategy", "fresh-page hits", "rate %"},
	}
	examples, sigma := g.TrainingSet(trainPages, 4)
	score := func(w *wrapper.Wrapper) (int, int) {
		hits := 0
		for i := 0; i < testPages; i++ {
			s := g.Generate(4)
			if pos, ok := w.ExtractTokens(s.Tokens); ok && pos == s.Target {
				hits++
			}
		}
		return hits, testPages
	}
	for _, row := range []struct {
		name string
		cfg  wrapper.Config
		exs  []learn.Example
	}{
		{"rigid (1 sample)", wrapper.Config{SkipMaximize: true}, examples[:1]},
		{"merged", wrapper.Config{SkipMaximize: true}, examples},
		{"maximized", wrapper.Config{}, examples},
	} {
		w, err := wrapper.TrainTokens(tab, row.exs, sigma, row.cfg)
		if err != nil {
			t.Rows = append(t.Rows, []string{row.name, "train-failed: " + err.Error(), "-", "-"})
			continue
		}
		hits, total := score(w)
		t.Rows = append(t.Rows, []string{
			row.name, w.Strategy(), fmt.Sprintf("%d/%d", hits, total),
			fmt.Sprintf("%.1f", 100*float64(hits)/float64(total)),
		})
	}
	return t
}

// E13Tuple exercises the multi-slot extension: induce a 2-slot tuple from
// marked examples, maximize it segment-wise, and score resilience under the
// perturbation model.
func E13Tuple(trials int, seed int64) Table {
	tab := symtab.NewTable()
	t := Table{
		ID:     "E13",
		Title:  "tuple (multi-slot) extraction — library extension",
		Claim:  "extension: the single-mark theory lifts to k-slot tuples (squared-automaton unambiguity, segment-wise maximization)",
		Header: []string{"wrapper", "unambiguous", "perturbed-page hits", "rate %"},
	}
	base, err := rx.ParseWord("P H1 /H1 FORM INPUT INPUT /FORM P", tab)
	if err != nil {
		panic(err)
	}
	targets := []int{4, 5}
	variant, err := rx.ParseWord("TABLE TR TD FORM INPUT INPUT /FORM /TD /TR /TABLE", tab)
	if err != nil {
		panic(err)
	}
	p := perturb.New(tab, seed)
	sigma := symtab.NewAlphabet(base...).Union(symtab.NewAlphabet(variant...)).Union(p.Alphabet())
	examples := []learn.TupleExample{
		{Doc: base, Targets: targets},
		{Doc: variant, Targets: []int{4, 5}},
	}
	induced, err := learn.InduceTuple(examples, sigma, DefaultOptions)
	if err != nil {
		panic(err)
	}
	maxed, err := extract.MaximizeTuple(induced)
	if err != nil {
		panic(err)
	}
	type trial struct {
		doc []symtab.Symbol
		t1  int
		t2  int
	}
	var corpus []trial
	for i := 0; i < trials; i++ {
		doc, t1, _ := p.Apply(base, targets[0], 1+i%4)
		// Track the second target too: re-locate it as the INPUT after t1.
		input := tab.Intern("INPUT")
		t2 := -1
		for j := t1 + 1; j < len(doc); j++ {
			if doc[j] == input {
				t2 = j
				break
			}
		}
		if t2 < 0 {
			continue
		}
		corpus = append(corpus, trial{doc, t1, t2})
	}
	for _, row := range []struct {
		name string
		tp   *extract.Tuple
	}{{"induced", induced}, {"maximized", maxed}} {
		unamb, err := row.tp.Unambiguous()
		if err != nil {
			panic(err)
		}
		hits := 0
		for _, tr := range corpus {
			v, ok, err := row.tp.Extract(tr.doc)
			if err == nil && ok && len(v) == 2 && v[0] == tr.t1 && v[1] == tr.t2 {
				hits++
			}
		}
		t.Rows = append(t.Rows, []string{
			row.name, fmt.Sprint(unamb), fmt.Sprintf("%d/%d", hits, len(corpus)),
			fmt.Sprintf("%.1f", 100*float64(hits)/float64(len(corpus))),
		})
	}
	return t
}

// E14Alphabet is the alphabet-coverage ablation behind the DTD feature
// (§8): identical training and scoring at several training-set sizes, with
// Σ either inferred from the samples alone or extended to the generator's
// full vocabulary (what a DTD declares). Pages using declared-but-unseen
// tags are unparseable in the samples-only configuration by construction;
// with enough samples the vocabulary is eventually covered anyway — the DTD
// gets there with fewer samples.
func E14Alphabet(trainSizes []int, testPages int, seed int64) Table {
	t := Table{
		ID:     "E14",
		Title:  "alphabet coverage: samples-only Σ vs declared (DTD-style) Σ",
		Claim:  "§8 DTD guidance: declaring the site vocabulary up front removes out-of-Σ misses at small training sizes",
		Header: []string{"training pages", "samples-only %", "declared-Σ %"},
	}
	for _, trainPages := range trainSizes {
		var rates [2]float64
		for i, declared := range []bool{false, true} {
			tab := symtab.NewTable()
			g := NewSiteGenerator(tab, seed)
			examples, sigma := g.TrainingSet(trainPages, 4)
			if !declared {
				sigma = symtab.Alphabet{}
				for _, ex := range examples {
					sigma = sigma.Union(symtab.NewAlphabet(ex.Doc...))
				}
			}
			w, err := wrapper.TrainTokens(tab, examples, sigma, wrapper.Config{})
			if err != nil {
				panic(err)
			}
			hits := 0
			for j := 0; j < testPages; j++ {
				s := g.Generate(4)
				if pos, ok := w.ExtractTokens(s.Tokens); ok && pos == s.Target {
					hits++
				}
			}
			rates[i] = 100 * float64(hits) / float64(testPages)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(trainPages),
			fmt.Sprintf("%.1f", rates[0]),
			fmt.Sprintf("%.1f", rates[1]),
		})
	}
	return t
}

// E10Factoring measures prefix/suffix factoring over expression depth
// (Lemma 5.2: polynomial time).
func E10Factoring(depths []int, trials int, seed int64) Table {
	e := NewEnv()
	rng := rand.New(rand.NewSource(seed))
	t := Table{
		ID:     "E10",
		Title:  "factoring E2\\E1 and E1/E2 vs expression depth",
		Claim:  "Lemma 5.2: factors are computable in polynomial time",
		Header: []string{"depth", "avg-states", "left µs/op", "right µs/op"},
	}
	opts := DefaultOptions
	for _, depth := range depths {
		var duL, duR time.Duration
		states := 0
		done := 0
		for i := 0; i < trials; i++ {
			l1, err := langOf(e, e.RandomRegex(depth, rng), opts)
			if err != nil {
				continue
			}
			l2, err := langOf(e, e.RandomRegex(depth, rng), opts)
			if err != nil {
				continue
			}
			states += l1.States() + l2.States()
			start := time.Now()
			if _, err := l1.LeftFactor(l2); err != nil {
				continue
			}
			duL += time.Since(start)
			start = time.Now()
			if _, err := l1.RightFactor(l2); err != nil {
				continue
			}
			duR += time.Since(start)
			done++
		}
		if done == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth), fmt.Sprint(states / (2 * done)),
			fmt.Sprintf("%.1f", float64(duL.Microseconds())/float64(done)),
			fmt.Sprintf("%.1f", float64(duR.Microseconds())/float64(done)),
		})
	}
	return t
}

// E11MiddleRow demonstrates the Section 8 limitation: wrappers trained on
// middle rows of small tables cannot track the middle of larger ones.
func E11MiddleRow(trainMax int, testSizes []int) Table {
	tab := symtab.NewTable()
	tr := tab.Intern("TR")
	t := Table{
		ID:     "E11",
		Title:  "middle-row extraction beyond the regular frontier",
		Claim:  "Section 8: TRⁿ⟨TR⟩TRⁿ is not regular; any regular wrapper fails beyond its training sizes",
		Header: []string{"table rows", "extracted middle?", "note"},
	}
	var examples []learn.Example
	for n := 1; n <= trainMax; n++ {
		doc := make([]symtab.Symbol, 2*n+1)
		for i := range doc {
			doc[i] = tr
		}
		examples = append(examples, learn.Example{Doc: doc, Target: n})
	}
	sigma := symtab.NewAlphabet(tr)
	w, err := wrapper.TrainTokens(tab, examples, sigma, wrapper.Config{})
	if err != nil {
		// Induction fails outright: the examples are inherently ambiguous —
		// itself a demonstration of the limitation.
		t.Rows = append(t.Rows, []string{"-", "-", "induction failed: " + err.Error()})
		return t
	}
	for _, rows := range testSizes {
		doc := make([]symtab.Symbol, rows)
		for i := range doc {
			doc[i] = tr
		}
		pos, ok := w.ExtractTokens(doc)
		note := ""
		if rows/2 <= trainMax {
			note = "(within training sizes)"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rows), fmt.Sprint(ok && pos == rows/2), note,
		})
	}
	return t
}

func langOf(e Env, n *rx.Node, opts machine.Options) (lang.Language, error) {
	return lang.FromRegex(n, e.Sigma, opts)
}
