package machine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resilex/internal/obs"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// Straightforward formulations of the subset construction (a []bool set per
// state, one move per symbol) and of Hopcroft refinement (maps per splitter
// and per split), kept as references. TestKernelsMatchReference and
// FuzzDeterminizeEquiv require Determinize and MinimizeOpt to build the
// same automata, state for state, and to record the same phase counts.

// subsetKey packs a state bitset into a compact map key.
func subsetKey(set []bool) string {
	b := make([]byte, (len(set)+7)/8)
	for i, in := range set {
		if in {
			b[i/8] |= 1 << (i % 8)
		}
	}
	return string(b)
}

// referenceDeterminize converts an NFA to a complete DFA via subset
// construction. It fails with ErrBudget if more than opt.MaxStates subset
// states are created — the honest face of the PSPACE lower bound
// (Theorem 5.12).
func referenceDeterminize(n *NFA, opt Options) (_ *DFA, err error) {
	var states, transitions, polls int64
	opt, ph := beginPhase(opt, "machine.determinize")
	defer func() {
		ph.Attr("states", states)
		ph.Attr("transitions", transitions)
		ph.Count("machine_subset_states_total", states)
		ph.Count("machine_subset_transitions_total", transitions)
		ph.Count("machine_deadline_polls_total", polls)
		endPhase(ph, err)
	}()
	limit := opt.limit()
	d := newDFA(n.Sigma)
	key := subsetKey
	isAccept := func(set []bool) bool {
		for s, in := range set {
			if in && n.Accept[s] {
				return true
			}
		}
		return false
	}
	start := n.startSet()
	index := map[string]int{key(start): 0}
	d.addState(isAccept(start))
	states = 1
	d.Start = 0
	queue := [][]bool{start}
	for qi := 0; qi < len(queue); qi++ {
		polls++
		if err := opt.Err(); err != nil {
			return nil, fmt.Errorf("%w: determinization abandoned at %d states", err, len(index))
		}
		set := queue[qi]
		for k, sym := range d.syms {
			next := n.move(set, sym)
			nk := key(next)
			id, ok := index[nk]
			if !ok {
				if len(index) >= limit {
					return nil, fmt.Errorf("%w: determinization needs > %d states", ErrBudget, limit)
				}
				id = d.addState(isAccept(next))
				states++
				index[nk] = id
				queue = append(queue, next)
			}
			d.Trans[qi][k] = id
			transitions++
		}
	}
	return d, nil
}

// referenceMinimizeOpt is Minimize polling the options' deadline between
// partition-refinement rounds, for callers running whole construction
// pipelines under one context.
func referenceMinimizeOpt(d *DFA, opt Options) (_ *DFA, err error) {
	var passes, polls int64
	opt, ph := beginPhase(opt, "machine.minimize")
	defer func() {
		ph.Attr("passes", passes)
		ph.Count("machine_minimize_passes_total", passes)
		ph.Count("machine_deadline_polls_total", polls)
		endPhase(ph, err)
	}()
	d = d.trim()
	n := d.NumStates()
	if n == 0 {
		// Cannot happen: start state is always reachable.
		panic("machine: empty DFA")
	}
	// Hopcroft.
	// inverse[k][t] = states s with Trans[s][k] == t
	inverse := make([][][]int32, len(d.syms))
	for k := range d.syms {
		inverse[k] = make([][]int32, n)
	}
	for s := 0; s < n; s++ {
		for k := range d.syms {
			t := d.Trans[s][k]
			inverse[k][t] = append(inverse[k][t], int32(s))
		}
	}
	// Partition as slice of blocks; block membership per state.
	blockOf := make([]int, n)
	var blocks [][]int32
	var acc, rej []int32
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			acc = append(acc, int32(s))
		} else {
			rej = append(rej, int32(s))
		}
	}
	addBlock := func(members []int32) int {
		id := len(blocks)
		blocks = append(blocks, members)
		for _, s := range members {
			blockOf[s] = id
		}
		return id
	}
	// Seeding the worklist with both initial blocks keeps the splitting loop
	// simple; the asymptotic bound is unaffected for our automaton sizes.
	var worklist []int
	if len(acc) > 0 {
		worklist = append(worklist, addBlock(acc))
	}
	if len(rej) > 0 {
		worklist = append(worklist, addBlock(rej))
	}
	inWork := make(map[int]bool)
	for _, w := range worklist {
		inWork[w] = true
	}
	for len(worklist) > 0 {
		passes++
		polls++
		if err := opt.Err(); err != nil {
			return nil, fmt.Errorf("%w: minimization abandoned with %d blocks", err, len(blocks))
		}
		a := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		inWork[a] = false
		// Snapshot: blocks[a] may be re-sliced by later splits.
		splitter := append([]int32(nil), blocks[a]...)
		for k := range d.syms {
			// X = predecessors of splitter on symbol k.
			touched := map[int][]int32{} // block -> members in X
			for _, t := range splitter {
				for _, s := range inverse[k][t] {
					b := blockOf[s]
					touched[b] = append(touched[b], s)
				}
			}
			for b, inX := range touched {
				if len(inX) == len(blocks[b]) {
					continue // no split
				}
				// Split block b into inX and rest.
				inXset := make(map[int32]bool, len(inX))
				for _, s := range inX {
					inXset[s] = true
				}
				var rest []int32
				for _, s := range blocks[b] {
					if !inXset[s] {
						rest = append(rest, s)
					}
				}
				blocks[b] = inX
				for _, s := range inX {
					blockOf[s] = b
				}
				newID := addBlock(rest)
				if inWork[b] {
					worklist = append(worklist, newID)
					inWork[newID] = true
				} else {
					smaller := newID
					if len(blocks[b]) < len(rest) {
						smaller = b
					}
					worklist = append(worklist, smaller)
					inWork[smaller] = true
				}
			}
		}
	}
	// Build the quotient automaton.
	q := newDFA(d.Sigma)
	q.Accept = make([]bool, len(blocks))
	q.Trans = make([][]int, len(blocks))
	for b, members := range blocks {
		rep := int(members[0])
		q.Accept[b] = d.Accept[rep]
		row := make([]int, len(d.syms))
		for k := range d.syms {
			row[k] = blockOf[d.Trans[rep][k]]
		}
		q.Trans[b] = row
	}
	q.Start = blockOf[d.Start]
	return q.canonicalize(), nil
}

// TestKernelsMatchReference runs both kernels and their references on the
// Thompson NFAs of equivCases and of random extended expressions, on their
// reversals (several start states) and on complemented DFAs (minimization
// input that is not fresh from Determinize). The automata must be equal
// state for state, the budget must fail on the same inputs, and the
// machine_* phase counts must agree.
func TestKernelsMatchReference(t *testing.T) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
	var nodes []*rx.Node
	for _, src := range equivCases {
		n, err := rx.Parse(src, tab, sigma)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		nodes = append(nodes, n)
	}
	rng := rand.New(rand.NewSource(2611))
	for i := 0; i < 300; i++ {
		nodes = append(nodes, genExtended(rng, sigma.Symbols()[:2+i%2], 2+i%3))
	}
	for _, n := range nodes {
		nfa, err := Compile(n, sigma, Options{MaxStates: 1 << 12})
		if err != nil {
			continue // budget blowups are acceptable for adversarial nests
		}
		for _, in := range []*NFA{nfa, nfa.Reverse()} {
			checkAgainstReference(t, rx.Print(n, tab), in, 1<<12)
			checkAgainstReference(t, rx.Print(n, tab)+" (budget 8)", in, 8)
		}
	}
}

// checkAgainstReference compares Determinize and MinimizeOpt with the
// references on one NFA under one state budget.
func checkAgainstReference(t *testing.T, name string, nfa *NFA, budget int) {
	t.Helper()
	o, ref := obs.New(), obs.New()
	opt := Options{MaxStates: budget, Ctx: obs.NewContext(context.Background(), o)}
	refOpt := Options{MaxStates: budget, Ctx: obs.NewContext(context.Background(), ref)}
	d, err := Determinize(nfa, opt)
	want, refErr := referenceDeterminize(nfa, refOpt)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: Determinize err %v, reference err %v", name, err, refErr)
	}
	if err == nil {
		if !StructurallyEqual(d, want) {
			t.Fatalf("%s: Determinize differs from the reference (%d vs %d states)", name, d.NumStates(), want.NumStates())
		}
		for _, in := range []*DFA{d, d.Complement()} {
			m, err := MinimizeOpt(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			wantMin, err := referenceMinimizeOpt(in, refOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !StructurallyEqual(m, wantMin) {
				t.Fatalf("%s: MinimizeOpt differs from the reference (%d vs %d states)", name, m.NumStates(), wantMin.NumStates())
			}
		}
	}
	got, exp := o.Metrics.Snapshot().Counters, ref.Metrics.Snapshot().Counters
	for _, counters := range []map[string]int64{got, exp} {
		for c := range counters {
			if strings.HasPrefix(c, "machine_") && got[c] != exp[c] {
				t.Fatalf("%s: %s = %d, reference %d", name, c, got[c], exp[c])
			}
		}
	}
}
