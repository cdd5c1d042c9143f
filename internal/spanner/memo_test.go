package spanner

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// memoCase is one tuple expression with a set of short words over its
// alphabet, some of them holding a symbol outside it.
type memoCase struct {
	src   string
	tp    *extract.Tuple
	words [][]symtab.Symbol
}

// memoCases returns fuzzExprs over {p, q, r}, plus E22's k = 3 record
// expression and a linked-cell record expression over HTML tag names, each
// with 60 seeded random words of up to 12 symbols and, for the HTML ones, a
// three-row record table.
func memoCases(t *testing.T) []memoCase {
	t.Helper()
	td := " /TD <TD>"
	families := []struct {
		sigma []string
		exprs []string
		page  string
	}{
		{[]string{"p", "q", "r"}, fuzzExprs, ""},
		{
			[]string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "A", "/A"},
			[]string{".* <TD>" + strings.Repeat(td, 2) + " .*", ".* <TD>" + strings.Repeat(" A /A"+td, 2) + " .*"},
			"TABLE" + strings.Repeat(" TR TD A /A /TD TD A /A /TD TD A /A /TD /TR", 3) + " /TABLE",
		},
	}
	rng := rand.New(rand.NewSource(7))
	var cases []memoCase
	for _, f := range families {
		tab := symtab.NewTable()
		syms := tab.InternAll(f.sigma...)
		sigma := symtab.NewAlphabet(syms...)
		out := tab.Intern("x")
		var words [][]symtab.Symbol
		for i := 0; i < 60; i++ {
			w := make([]symtab.Symbol, rng.Intn(13))
			for j := range w {
				// One letter in 30 falls outside Σ.
				if rng.Intn(30) == 0 {
					w[j] = out
				} else {
					w[j] = syms[rng.Intn(len(syms))]
				}
			}
			words = append(words, w)
		}
		if f.page != "" {
			var page []symtab.Symbol
			for _, name := range strings.Fields(f.page) {
				page = append(page, tab.Lookup(name))
			}
			words = append(words, page)
		}
		for _, src := range f.exprs {
			tp, err := extract.ParseTuple(src, tab, sigma, machine.Options{})
			if err != nil {
				t.Fatalf("ParseTuple(%q): %v", src, err)
			}
			cases = append(cases, memoCase{src: src, tp: tp, words: words})
		}
	}
	return cases
}

// liveNodes counts by brute force, straight from the segment DFAs, the
// (position, state) pairs reachable from (0, 0, start) from which a final
// state is reachable, with rows built until an empty row or an out-of-Σ
// symbol, as the forward pass builds them.
func liveNodes(tp *extract.Tuple, word []symtab.Symbol) int {
	k := tp.Arity()
	marks := tp.Marks()
	dfas := make([]*machine.DFA, k+1)
	for j := range dfas {
		dfas[j] = tp.Segment(j).DFA()
	}
	type state struct{ j, q int }
	succ := func(s state, a int, sym symtab.Symbol) []state {
		out := []state{{s.j, dfas[s.j].Trans[s.q][a]}}
		if s.j < k && dfas[s.j].Accept[s.q] && sym == marks[s.j] {
			out = append(out, state{s.j + 1, dfas[s.j+1].Start})
		}
		return out
	}
	live := func(s state) bool {
		seen := map[state]bool{s: true}
		for stack := []state{s}; len(stack) > 0; {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c.j == k && dfas[k].Accept[c.q] {
				return true
			}
			for a, sym := range dfas[c.j].Symbols() {
				for _, n := range succ(c, a, sym) {
					if !seen[n] {
						seen[n] = true
						stack = append(stack, n)
					}
				}
			}
		}
		return false
	}
	row := map[state]bool{}
	if start := (state{0, dfas[0].Start}); live(start) {
		row[start] = true
	}
	nodes := len(row)
	for _, sym := range word {
		a := slices.Index(dfas[0].Symbols(), sym)
		if len(row) == 0 || a < 0 {
			break
		}
		next := map[state]bool{}
		for s := range row {
			for _, n := range succ(s, a, sym) {
				if live(n) {
					next[n] = true
				}
			}
		}
		row = next
		nodes += len(row)
	}
	return nodes
}

// TestRunReachesNoDoomedState: a run adds no state to a row from which no
// final state is reachable, so Nodes() is the brute-force count of live
// reachable (position, state) pairs, and every enumeration still equals the
// naive oracle.
func TestRunReachesNoDoomedState(t *testing.T) {
	for _, c := range memoCases(t) {
		prog, err := Compile(c.tp, machine.Options{})
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		for _, w := range c.words {
			m, err := prog.Run(w)
			if err != nil {
				t.Fatalf("%q on %v: Run: %v", c.src, w, err)
			}
			if got, want := m.Nodes(), liveNodes(c.tp, w); got != want {
				t.Errorf("%q on %v: Nodes() = %d, want %d live nodes", c.src, w, got, want)
			}
			got, err := m.All()
			if err != nil {
				t.Fatalf("%q on %v: All: %v", c.src, w, err)
			}
			if want := NaiveTuples(c.tp, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q on %v:\n spanner = %v\n oracle  = %v", c.src, w, got, want)
			}
		}
	}
}

// TestMemoColdWarmCleared runs one program over many words on a fresh memo
// (each word's first run on a newly compiled program), on a warm memo, and
// on a memo cleared at the start of every run; all three must give the
// oracle's vectors. A warm memo misses nothing on a word it has just run,
// and a cleared one misses exactly as a fresh one does. The last part runs
// a warm program and an often-cleared one from several goroutines at once.
func TestMemoColdWarmCleared(t *testing.T) {
	for _, c := range memoCases(t) {
		want := make([][][]int, len(c.words))
		for i, w := range c.words {
			want[i] = NaiveTuples(c.tp, w)
		}
		compile := func() *Program {
			p, err := Compile(c.tp, machine.Options{})
			if err != nil {
				t.Fatalf("Compile(%q): %v", c.src, err)
			}
			return p
		}
		// run drains one run of p over word i against the oracle and
		// returns the arena it ran in with its memo's size, which every miss
		// grows.
		run := func(p *Program, i int) (*arena, int) {
			t.Helper()
			m, err := p.Run(c.words[i])
			if err != nil {
				t.Fatalf("%q on %v: Run: %v", c.src, c.words[i], err)
			}
			a, size := m.a, m.a.entries()
			got, err := m.All()
			if err != nil {
				t.Fatalf("%q on %v: All: %v", c.src, c.words[i], err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%q on %v:\n spanner = %v\n oracle  = %v", c.src, c.words[i], got, want[i])
			}
			return a, size
		}
		cold := make([]int, len(c.words)) // the memo's size after each word's first run
		for i := range c.words {
			_, cold[i] = run(compile(), i)
		}

		warm := compile()
		for i := range c.words {
			run(warm, i)
		}
		hits := 0
		for i := range c.words {
			a, n := run(warm, i)
			if b, again := run(warm, i); b == a { // the pool handed the arena back
				if again != n {
					t.Fatalf("%q on %v: a warm memo grew from %d to %d entries", c.src, c.words[i], n, again)
				}
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("%q: no rerun found its arena's memo warm", c.src)
		}

		cleared := compile()
		cleared.memoCap = 0
		for pass := 0; pass < 2; pass++ {
			for i := range c.words {
				if _, n := run(cleared, i); n != cold[i] {
					t.Fatalf("%q on %v: a cleared memo grew to %d entries, a fresh one to %d", c.src, c.words[i], n, cold[i])
				}
			}
		}

		cleared.memoCap = 64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 3*len(c.words); r++ {
					p, i := warm, (g+r)%len(c.words)
					if r%2 == 1 {
						p = cleared
					}
					m, err := p.Run(c.words[i])
					if err != nil {
						t.Errorf("goroutine %d: %q: Run: %v", g, c.src, err)
						return
					}
					got, err := m.All()
					if err != nil {
						t.Errorf("goroutine %d: %q: All: %v", g, c.src, err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d: %q on %v:\n spanner = %v\n oracle  = %v", g, c.src, c.words[i], got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
