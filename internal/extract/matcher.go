package extract

import (
	"fmt"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

// Matcher is a compiled extractor for one expression. Extraction over a
// document of n tokens costs O(n·|Σ|) after an O(n·states) backward
// precomputation — no determinization happens at match time, so a Matcher
// never fails, regardless of the expression.
//
// The strategy is the standard two-scan split search: a forward run of the
// minimal DFA of E1 marks every prefix in L(E1); a backward predecessor
// sweep of the minimal DFA of E2 marks every suffix in L(E2); valid
// extraction positions are the p-positions where both marks meet. For
// unambiguous expressions (Definition 4.2) at most one position survives.
type Matcher struct {
	p     symtab.Symbol
	fwd   *machine.DFA
	bwd   *machine.DFA
	binv  [][][]int32 // binv[symIndex][state] = predecessor states in bwd
	sigma symtab.Alphabet
}

// Compile builds the matcher. Both component DFAs already exist, so the only
// failure mode is an expired deadline carried by the expression's options.
func (e Expr) Compile() (*Matcher, error) {
	if err := e.opt.Err(); err != nil {
		return nil, fmt.Errorf("%w: matcher compilation", err)
	}
	_, ph := obs.StartPhase(e.opt.Ctx, "extract.matcher_compile")
	m := e.compileMatcher()
	ph.Attr("fwd_states", int64(m.fwd.NumStates()))
	ph.Attr("bwd_states", int64(m.bwd.NumStates()))
	ph.Count("extract_matcher_compiles_total", 1)
	ph.End()
	return m, nil
}

// compileMatcher is the infallible core of Compile: the predecessor-table
// build is linear in the (budget-bounded) suffix DFA.
func (e Expr) compileMatcher() *Matcher {
	fwd := e.left.DFA()
	bwd := e.right.DFA()
	binv := make([][][]int32, len(bwd.Symbols()))
	for k := range bwd.Symbols() {
		binv[k] = make([][]int32, bwd.NumStates())
	}
	for s := 0; s < bwd.NumStates(); s++ {
		for k := range bwd.Symbols() {
			t := bwd.Trans[s][k]
			binv[k][t] = append(binv[k][t], int32(s))
		}
	}
	return &Matcher{p: e.p, fwd: fwd, bwd: bwd, binv: binv, sigma: e.sigma}
}

// P returns the marked symbol the matcher extracts.
func (m *Matcher) P() symtab.Symbol { return m.p }

// All returns every valid extraction position in the word, ascending.
func (m *Matcher) All(word []symtab.Symbol) []int {
	n := len(word)
	// suffixOK[i]: word[i:] ∈ L(E2). Backward predecessor sweep over two
	// reused state buffers.
	suffixOK := make([]bool, n+1)
	states := m.bwd.NumStates()
	cur := make([]bool, states)
	next := make([]bool, states)
	for s := range cur {
		cur[s] = m.bwd.Accept[s]
	}
	suffixOK[n] = cur[m.bwd.Start]
	for i := n - 1; i >= 0; i-- {
		k := symIndexOf(m.bwd, word[i])
		for s := range next {
			next[s] = false
		}
		if k >= 0 {
			for t, in := range cur {
				if !in {
					continue
				}
				for _, s := range m.binv[k][t] {
					next[s] = true
				}
			}
		}
		cur, next = next, cur
		suffixOK[i] = cur[m.bwd.Start]
	}
	// Forward scan of E1's DFA, collecting positions.
	var out []int
	state := m.fwd.Start
	for i := 0; i < n; i++ {
		if state >= 0 && word[i] == m.p && m.fwd.Accept[state] && suffixOK[i+1] {
			out = append(out, i)
		}
		if state >= 0 {
			state = m.fwd.Step(state, word[i])
		}
	}
	return out
}

// Find returns the leftmost valid extraction position, or ok=false when the
// expression does not parse the word. For unambiguous expressions the
// leftmost position is the only one.
func (m *Matcher) Find(word []symtab.Symbol) (pos int, ok bool) {
	// Same scans as All but short-circuiting on the first hit.
	all := m.All(word)
	if len(all) == 0 {
		return -1, false
	}
	return all[0], true
}

// allNaive is the obvious O(n²) matcher — rerun the suffix DFA from scratch
// at every candidate position. It exists as the ablation baseline for the
// two-scan design (BenchmarkMatcherAblation) and as an independent oracle in
// tests; All must agree with it everywhere.
func (m *Matcher) allNaive(word []symtab.Symbol) []int {
	var out []int
	state := m.fwd.Start
	for i := 0; i < len(word); i++ {
		if state >= 0 && word[i] == m.p && m.fwd.Accept[state] {
			// Run the suffix DFA over word[i+1:].
			s := m.bwd.Start
			for j := i + 1; j < len(word) && s >= 0; j++ {
				s = m.bwd.Step(s, word[j])
			}
			if s >= 0 && m.bwd.Accept[s] {
				out = append(out, i)
			}
		}
		if state >= 0 {
			state = m.fwd.Step(state, word[i])
		}
	}
	return out
}

func symIndexOf(d *machine.DFA, sym symtab.Symbol) int {
	syms := d.Symbols()
	lo, hi := 0, len(syms)
	for lo < hi {
		mid := (lo + hi) / 2
		if syms[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(syms) && syms[lo] == sym {
		return lo
	}
	return -1
}
