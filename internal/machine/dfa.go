package machine

import (
	"fmt"
	"sort"

	"resilex/internal/symtab"
)

// DFA is a deterministic, *complete* finite automaton: every state has
// exactly one successor for every symbol of Σ (dead states are explicit).
// Completeness makes complementation a flip of the accept set.
type DFA struct {
	Sigma  symtab.Alphabet
	syms   []symtab.Symbol // Sigma.Symbols(), cached for dense indexing
	Start  int
	Accept []bool
	Trans  [][]int // Trans[state][symbolIndex] = successor
}

// NumStates reports the number of states.
func (d *DFA) NumStates() int { return len(d.Accept) }

// Symbols returns the cached dense symbol ordering (do not modify).
func (d *DFA) Symbols() []symtab.Symbol { return d.syms }

func (d *DFA) symIndex(sym symtab.Symbol) int {
	i := sort.Search(len(d.syms), func(i int) bool { return d.syms[i] >= sym })
	if i < len(d.syms) && d.syms[i] == sym {
		return i
	}
	return -1
}

// Step returns the successor of state on sym, or -1 if sym ∉ Σ.
func (d *DFA) Step(state int, sym symtab.Symbol) int {
	k := d.symIndex(sym)
	if k < 0 {
		return -1
	}
	return d.Trans[state][k]
}

// Accepts reports whether the DFA accepts the word. Symbols outside Σ make
// the word rejected.
func (d *DFA) Accepts(word []symtab.Symbol) bool {
	s := d.Start
	for _, sym := range word {
		s = d.Step(s, sym)
		if s < 0 {
			return false
		}
	}
	return d.Accept[s]
}

// Run returns the state reached after consuming word from state, or -1 if a
// symbol is outside Σ.
func (d *DFA) Run(state int, word []symtab.Symbol) int {
	for _, sym := range word {
		state = d.Step(state, sym)
		if state < 0 {
			return -1
		}
	}
	return state
}

func newDFA(sigma symtab.Alphabet) *DFA {
	return &DFA{Sigma: sigma, syms: sigma.Symbols()}
}

func (d *DFA) addState(accept bool) int {
	d.Accept = append(d.Accept, accept)
	d.Trans = append(d.Trans, make([]int, len(d.syms)))
	return len(d.Accept) - 1
}

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

// Determinize converts an NFA to a complete DFA via subset construction.
// It fails with ErrBudget if more than opt.MaxStates subset states are
// created — the honest face of the PSPACE lower bound (Theorem 5.12).
func Determinize(n *NFA, opt Options) (_ *DFA, err error) {
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

// Complement returns a DFA for Σ* − L(d).
func (d *DFA) Complement() *DFA {
	out := newDFA(d.Sigma)
	out.Start = d.Start
	out.Accept = make([]bool, d.NumStates())
	out.Trans = make([][]int, d.NumStates())
	for s := range d.Accept {
		out.Accept[s] = !d.Accept[s]
		out.Trans[s] = append([]int(nil), d.Trans[s]...)
	}
	return out
}

// Product builds the pair DFA of a and b with acceptance combined by op
// (e.g. AND for intersection, AND-NOT for difference, XOR for symmetric
// difference). Both automata must share the same Σ. Only reachable pairs are
// constructed.
func Product(a, b *DFA, op func(bool, bool) bool, opt Options) (_ *DFA, err error) {
	if !a.Sigma.Equal(b.Sigma) {
		return nil, fmt.Errorf("machine: product over distinct alphabets %v vs %v", a.Sigma.Symbols(), b.Sigma.Symbols())
	}
	var states, polls int64
	opt, ph := beginPhase(opt, "machine.product")
	defer func() {
		ph.Attr("states", states)
		ph.Count("machine_product_states_total", states)
		ph.Count("machine_deadline_polls_total", polls)
		endPhase(ph, err)
	}()
	limit := opt.limit()
	d := newDFA(a.Sigma)
	type pair struct{ x, y int }
	index := map[pair]int{}
	var queue []pair
	add := func(p pair) (int, error) {
		if id, ok := index[p]; ok {
			return id, nil
		}
		if len(index) >= limit {
			return 0, fmt.Errorf("%w: product needs > %d states", ErrBudget, limit)
		}
		id := d.addState(op(a.Accept[p.x], b.Accept[p.y]))
		states++
		index[p] = id
		queue = append(queue, p)
		return id, nil
	}
	startID, err := add(pair{a.Start, b.Start})
	if err != nil {
		return nil, err
	}
	d.Start = startID
	for qi := 0; qi < len(queue); qi++ {
		polls++
		if err := opt.Err(); err != nil {
			return nil, fmt.Errorf("%w: product abandoned at %d states", err, len(index))
		}
		p := queue[qi]
		from := index[p]
		for k := range d.syms {
			id, err := add(pair{a.Trans[p.x][k], b.Trans[p.y][k]})
			if err != nil {
				return nil, err
			}
			d.Trans[from][k] = id
		}
	}
	return d, nil
}

// Minimize returns the canonical minimal DFA for d: unreachable states are
// trimmed, Hopcroft partition refinement merges equivalent states, and the
// result is renumbered by breadth-first order from the start state (so two
// equivalent inputs over the same Σ minimize to byte-identical automata).
// Hopcroft refinement is polynomial in the (already budget-bounded) input,
// so this form carries no deadline; MinimizeOpt adds one.
func Minimize(d *DFA) *DFA {
	out, err := MinimizeOpt(d, Options{})
	if err != nil {
		panic(err) // unreachable: Options{} has no context to expire
	}
	return out
}

// MinimizeOpt is Minimize polling the options' deadline between partition-
// refinement rounds, for callers running whole construction pipelines under
// one context.
func MinimizeOpt(d *DFA, opt Options) (_ *DFA, err error) {
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

// trim removes unreachable states (keeping the automaton complete).
func (d *DFA) trim() *DFA {
	n := d.NumStates()
	seen := make([]bool, n)
	order := []int{d.Start}
	seen[d.Start] = true
	for i := 0; i < len(order); i++ {
		s := order[i]
		for k := range d.syms {
			t := d.Trans[s][k]
			if !seen[t] {
				seen[t] = true
				order = append(order, t)
			}
		}
	}
	if len(order) == n {
		return d
	}
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	for newID, s := range order {
		remap[s] = newID
	}
	out := newDFA(d.Sigma)
	out.Accept = make([]bool, len(order))
	out.Trans = make([][]int, len(order))
	for newID, s := range order {
		out.Accept[newID] = d.Accept[s]
		row := make([]int, len(d.syms))
		for k := range d.syms {
			row[k] = remap[d.Trans[s][k]]
		}
		out.Trans[newID] = row
	}
	out.Start = remap[d.Start]
	return out
}

// canonicalize renumbers states in BFS order from the start state, visiting
// symbols in ascending order. All states are assumed reachable.
func (d *DFA) canonicalize() *DFA {
	n := d.NumStates()
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	order := []int{d.Start}
	remap[d.Start] = 0
	for i := 0; i < len(order); i++ {
		s := order[i]
		for k := range d.syms {
			t := d.Trans[s][k]
			if remap[t] < 0 {
				remap[t] = len(order)
				order = append(order, t)
			}
		}
	}
	out := newDFA(d.Sigma)
	out.Accept = make([]bool, len(order))
	out.Trans = make([][]int, len(order))
	for _, s := range order {
		newID := remap[s]
		out.Accept[newID] = d.Accept[s]
		row := make([]int, len(d.syms))
		for k := range d.syms {
			row[k] = remap[d.Trans[s][k]]
		}
		out.Trans[newID] = row
	}
	out.Start = 0
	return out
}

// StructurallyEqual reports whether two DFAs are byte-identical modulo
// nothing — same Σ, same tables. Minimal canonical DFAs of equal languages
// compare true.
func StructurallyEqual(a, b *DFA) bool {
	if !a.Sigma.Equal(b.Sigma) || a.Start != b.Start || a.NumStates() != b.NumStates() {
		return false
	}
	for s := range a.Accept {
		if a.Accept[s] != b.Accept[s] {
			return false
		}
		for k := range a.syms {
			if a.Trans[s][k] != b.Trans[s][k] {
				return false
			}
		}
	}
	return true
}
