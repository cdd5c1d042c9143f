package machine

import (
	"math/rand"
	"testing"

	"resilex/internal/symtab"
)

// denseDFA compiles a regex to its minimal DFA via the test helpers already
// used by machine_test.go.
func denseDFA(t *testing.T, src string) (*DFA, *symtab.Table, symtab.Alphabet) {
	t.Helper()
	e := env3()
	return e.dfa(t, src), e.tab, e.sigma
}

// TestDenseStepAgreesWithDFA runs random words through the pointered DFA and
// the compacted Dense table; every step and accept bit must agree.
func TestDenseStepAgreesWithDFA(t *testing.T) {
	for _, src := range []string{"p* q p*", "(p q)* | q*", ".* p . q .*", "[^ p]* p [^ p]*"} {
		d, _, sigma := denseDFA(t, src)
		dense, err := d.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if dense.NumStates() != d.NumStates() {
			t.Fatalf("%s: dense has %d states, DFA %d", src, dense.NumStates(), d.NumStates())
		}
		idx, err := NewSymbolIndex(sigma)
		if err != nil {
			t.Fatal(err)
		}
		syms := sigma.Symbols()
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(24)
			ds, ss := d.Start, dense.Start
			for i := 0; i < n; i++ {
				sym := syms[rng.Intn(len(syms))]
				k := idx.Index(sym)
				if k < 0 {
					t.Fatalf("symbol %d not indexed", sym)
				}
				ds = d.Step(ds, sym)
				ss = dense.Step(ss, k)
				if ds != int(ss) {
					t.Fatalf("%s: diverged at step %d: DFA %d, dense %d", src, i, ds, ss)
				}
			}
			if d.Accept[ds] != dense.Accept[ss] {
				t.Fatalf("%s: accept bit diverged in state %d", src, ds)
			}
		}
	}
}

// TestDenseDoomed checks the sink detection: states that cannot reach an
// accepting state are doomed, all others are not.
func TestDenseDoomed(t *testing.T) {
	// "p q" over {p,q}: the dead sink after a wrong symbol is doomed; the
	// three states along the accepting spine are not.
	d, _, _ := denseDFA(t, "p q")
	dense, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	doomed := dense.Doomed()
	// Exactly the states from which acceptance is reachable survive; verify
	// against a brute-force forward search from each state.
	for s := 0; s < d.NumStates(); s++ {
		reach := map[int]bool{s: true}
		frontier := []int{s}
		ok := d.Accept[s]
		for len(frontier) > 0 && !ok {
			cur := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for k := range d.Symbols() {
				t2 := d.Trans[cur][k]
				if !reach[t2] {
					reach[t2] = true
					frontier = append(frontier, t2)
					if d.Accept[t2] {
						ok = true
					}
				}
			}
		}
		if doomed[s] == ok {
			t.Fatalf("state %d: doomed=%v but acceptance reachable=%v", s, doomed[s], ok)
		}
	}
	// A universal automaton has no doomed states.
	u, _, _ := denseDFA(t, ".*")
	ud, err := u.Compact()
	if err != nil {
		t.Fatal(err)
	}
	for s, dm := range ud.Doomed() {
		if dm {
			t.Fatalf("universal automaton: state %d doomed", s)
		}
	}
}

// TestSymbolIndexOutOfRange: None and foreign ids map to -1.
func TestSymbolIndexOutOfRange(t *testing.T) {
	tab := symtab.NewTable()
	syms := tab.InternAll("p", "q", "r")
	sigma := symtab.NewAlphabet(syms[0], syms[2]) // p and r, not q
	idx, err := NewSymbolIndex(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Index(syms[0]) != 0 || idx.Index(syms[2]) != 1 {
		t.Fatalf("in-alphabet symbols misindexed: %d %d", idx.Index(syms[0]), idx.Index(syms[2]))
	}
	if idx.Index(syms[1]) != -1 {
		t.Error("q is not in the alphabet but got an index")
	}
	if idx.Index(symtab.None) != -1 {
		t.Error("None got an index")
	}
	if idx.Index(symtab.Symbol(999)) != -1 {
		t.Error("foreign id got an index")
	}
}

// TestCompactWideTable: state ids are uint32, so an automaton past the old
// 65,534-state uint16 limit compacts, steps and sweeps like a small one.
func TestCompactWideTable(t *testing.T) {
	const n = 1<<16 + 8
	tab := symtab.NewTable()
	p, q := tab.Intern("p"), tab.Intern("q")
	d := newDFA(symtab.NewAlphabet(p, q))
	for s := 0; s < n; s++ {
		d.addState(s == n-2)
	}
	// p counts up a chain; q jumps to the last state, a non-accepting sink.
	for s := 0; s < n; s++ {
		d.Trans[s][0] = min(s+1, n-1)
		d.Trans[s][1] = n - 1
	}
	dense, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact of %d states: %v", n, err)
	}
	if dense.NumStates() != n {
		t.Fatalf("dense has %d states, want %d", dense.NumStates(), n)
	}
	s := dense.Start
	for i := 0; i < n-2; i++ {
		s = dense.Step(s, 0)
	}
	if s != n-2 || !dense.Accept[s] {
		t.Fatalf("after %d p steps: state %d (accepting %v), want %d accepting", n-2, s, dense.Accept[s], n-2)
	}
	doomed := dense.Doomed()
	if doomed[0] || doomed[n-2] || !doomed[n-1] {
		t.Fatalf("Doomed: start %v, accept %v, sink %v; want false, false, true", doomed[0], doomed[n-2], doomed[n-1])
	}
}
