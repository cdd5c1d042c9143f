package machine

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// Determinize converts an NFA to a complete DFA via subset construction.
// It fails with ErrBudget if more than opt.MaxStates subset states are
// created — the honest face of the PSPACE lower bound (Theorem 5.12).
// Subset states are numbered in breadth-first order of discovery, symbols
// ascending.
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
	ps := newPowerset(n, d.syms)
	// index maps a subset's packed key to its DFA state; queue holds the
	// keys in state order, and each subset's members are read back from it.
	index := map[string]int{}
	var queue []string
	add := func(set []uint64) int {
		key := string(ps.pack(set))
		id := d.addState(ps.accepts(set))
		index[key] = id
		queue = append(queue, key)
		states++
		return id
	}
	d.Start = add(ps.startSet())
	for qi := 0; qi < len(queue); qi++ {
		polls++
		if err := opt.Err(); err != nil {
			return nil, fmt.Errorf("%w: determinization abandoned at %d states", err, len(index))
		}
		ps.successors(queue[qi])
		for k := range d.syms {
			next := ps.closed(k)
			id, ok := index[string(ps.pack(next))]
			if !ok {
				if len(index) >= limit {
					return nil, fmt.Errorf("%w: determinization needs > %d states", ErrBudget, limit)
				}
				id = add(next)
			}
			d.Trans[qi][k] = id
			transitions++
		}
	}
	return d, nil
}

// powerset holds the tables one subset construction reuses. Subsets
// are packed bitsets over the NFA's states, words uint64s each. Every
// edge's class is resolved to dense symbol indexes once, so one pass over
// a subset's members fills the successor sets of all |Σ| symbols.
type powerset struct {
	n     *NFA
	words int
	// The edges of state s are edges[edgeAt[s]:edgeAt[s+1]]; the symbol
	// indexes of edge e are syms[symAt[e]:symAt[e+1]].
	edgeAt, symAt []int32
	edges         []int32 // target state
	syms          []int32
	accept        []uint64
	succ          []uint64  // one successor subset per symbol index
	grown         [][]int32 // per symbol index: added states with ε-moves
	key           []byte
}

func newPowerset(n *NFA, syms []symtab.Symbol) *powerset {
	states := n.NumStates()
	words := (states + 63) / 64
	ps := &powerset{
		n:      n,
		words:  words,
		edgeAt: make([]int32, states+1),
		symAt:  []int32{0},
		accept: make([]uint64, words),
		succ:   make([]uint64, len(syms)*words),
		grown:  make([][]int32, len(syms)),
		key:    make([]byte, 8*words),
	}
	for s := 0; s < states; s++ {
		if n.Accept[s] {
			ps.accept[s>>6] |= 1 << (s & 63)
		}
		for _, e := range n.Edges[s] {
			// Both symbol lists are ascending: merge them.
			on, k := e.On, 0
			for i := 0; i < on.Len(); i++ {
				sym := on.At(i)
				for k < len(syms) && syms[k] < sym {
					k++
				}
				if k < len(syms) && syms[k] == sym {
					ps.syms = append(ps.syms, int32(k))
				}
			}
			ps.edges = append(ps.edges, int32(e.To))
			ps.symAt = append(ps.symAt, int32(len(ps.syms)))
		}
		ps.edgeAt[s+1] = int32(len(ps.edges))
	}
	return ps
}

// startSet returns the ε-closed start subset.
func (ps *powerset) startSet() []uint64 {
	set := make([]uint64, ps.words)
	var stack []int32
	for _, s := range ps.n.Start {
		if set[s>>6]&(1<<(s&63)) == 0 {
			set[s>>6] |= 1 << (s & 63)
			stack = append(stack, int32(s))
		}
	}
	ps.close(set, stack)
	return set
}

// successors fills the successor subset of every symbol index from the
// subset packed in key, before ε-closure: one pass over its members.
func (ps *powerset) successors(key string) {
	clear(ps.succ)
	for i := 0; i < len(key); i++ {
		for b := key[i]; b != 0; b &= b - 1 {
			s := 8*i + bits.TrailingZeros8(b)
			for e := ps.edgeAt[s]; e < ps.edgeAt[s+1]; e++ {
				to := ps.edges[e]
				w, bit := int(to>>6), uint64(1)<<(to&63)
				for _, k := range ps.syms[ps.symAt[e]:ps.symAt[e+1]] {
					row := ps.succ[int(k)*ps.words:]
					if row[w]&bit == 0 {
						row[w] |= bit
						if len(ps.n.Eps[to]) > 0 {
							ps.grown[k] = append(ps.grown[k], to)
						}
					}
				}
			}
		}
	}
}

// closed ε-closes the successor subset of symbol index k and returns it.
func (ps *powerset) closed(k int) []uint64 {
	set := ps.succ[k*ps.words : (k+1)*ps.words]
	ps.grown[k] = ps.close(set, ps.grown[k])[:0]
	return set
}

// close adds to set every state ε-reachable from the states on stack,
// which are members already, and returns the emptied stack.
func (ps *powerset) close(set []uint64, stack []int32) []int32 {
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range ps.n.Eps[s] {
			if set[t>>6]&(1<<(t&63)) == 0 {
				set[t>>6] |= 1 << (t & 63)
				stack = append(stack, int32(t))
			}
		}
	}
	return stack
}

func (ps *powerset) accepts(set []uint64) bool {
	for i, w := range set {
		if w&ps.accept[i] != 0 {
			return true
		}
	}
	return false
}

// pack writes set into the reused key buffer, whose string form is the
// subset's map key.
func (ps *powerset) pack(set []uint64) []byte {
	for i, w := range set {
		binary.LittleEndian.PutUint64(ps.key[8*i:], w)
	}
	return ps.key
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
	syms := len(d.syms)
	// Hopcroft. The states s with Trans[s][k] == t are
	// pred[predAt[k*n+t]:predAt[k*n+t+1]].
	predAt := make([]int32, syms*n+1)
	for s := 0; s < n; s++ {
		for k, t := range d.Trans[s] {
			predAt[k*n+t]++
		}
	}
	for i := 1; i < len(predAt); i++ {
		predAt[i] += predAt[i-1]
	}
	pred := make([]int32, n*syms)
	for s := n - 1; s >= 0; s-- {
		for k, t := range d.Trans[s] {
			predAt[k*n+t]--
			pred[predAt[k*n+t]] = int32(s)
		}
	}
	// The partition: block b's states are elems[first[b]:end[b]], and
	// loc[s] is the position of state s in elems. A refinement step moves
	// the states it marks to the front of their block, counting them in
	// marked[b], and lists each block it touched once.
	elems := make([]int32, 0, n)
	loc := make([]int32, n)
	blockOf := make([]int32, n)
	var first, end, marked []int32
	addBlock := func(accept bool) {
		b, at := int32(len(first)), int32(len(elems))
		for s := 0; s < n; s++ {
			if d.Accept[s] == accept {
				loc[s] = int32(len(elems))
				blockOf[s] = b
				elems = append(elems, int32(s))
			}
		}
		if int32(len(elems)) > at {
			first, end, marked = append(first, at), append(end, int32(len(elems))), append(marked, 0)
		}
	}
	addBlock(true)
	addBlock(false)
	// Seeding the worklist with both initial blocks keeps the splitting loop
	// simple; the asymptotic bound is unaffected for our automaton sizes.
	// Every split puts the smaller half on the worklist as a new block, so
	// the loop takes one pass per block of the minimal automaton.
	var worklist, touched, splitter []int32
	for b := range first {
		worklist = append(worklist, int32(b))
	}
	for len(worklist) > 0 {
		passes++
		polls++
		if err := opt.Err(); err != nil {
			return nil, fmt.Errorf("%w: minimization abandoned with %d blocks", err, len(first))
		}
		a := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		// Snapshot: block a may be split by the steps below.
		splitter = append(splitter[:0], elems[first[a]:end[a]]...)
		for k := 0; k < syms; k++ {
			// Mark the predecessors of the splitter on symbol k.
			row := predAt[k*n:]
			for _, t := range splitter {
				for _, s := range pred[row[t]:row[t+1]] {
					b := blockOf[s]
					i, j := loc[s], first[b]+marked[b]
					if i < j {
						continue // marked already
					}
					o := elems[j]
					elems[i], elems[j] = o, s
					loc[o], loc[s] = i, j
					if marked[b] == 0 {
						touched = append(touched, b)
					}
					marked[b]++
				}
			}
			for _, b := range touched {
				m := marked[b]
				marked[b] = 0
				if m == end[b]-first[b] {
					continue // no split
				}
				// Split block b; the smaller half becomes block nb.
				nb := int32(len(first))
				if mid := first[b] + m; 2*m <= end[b]-first[b] {
					first, end = append(first, first[b]), append(end, mid)
					first[b] = mid
				} else {
					first, end = append(first, mid), append(end, end[b])
					end[b] = mid
				}
				marked = append(marked, 0)
				for _, s := range elems[first[nb]:end[nb]] {
					blockOf[s] = nb
				}
				worklist = append(worklist, nb)
			}
			touched = touched[:0]
		}
	}
	// Build the quotient automaton in canonical order: breadth-first from
	// the start block, symbols ascending, as canonicalize numbers states.
	blocks := len(first)
	remap := make([]int, blocks)
	for i := range remap {
		remap[i] = -1
	}
	order := make([]int32, 1, blocks)
	order[0] = blockOf[d.Start]
	remap[order[0]] = 0
	q := newDFA(d.Sigma)
	q.Accept = make([]bool, blocks)
	q.Trans = make([][]int, blocks)
	slab := make([]int, blocks*syms)
	for i := 0; i < len(order); i++ {
		rep := elems[first[order[i]]]
		row := slab[i*syms : (i+1)*syms : (i+1)*syms]
		for k, t := range d.Trans[rep] {
			tb := blockOf[t]
			if remap[tb] < 0 {
				remap[tb] = len(order)
				order = append(order, tb)
			}
			row[k] = remap[tb]
		}
		q.Accept[i] = d.Accept[rep]
		q.Trans[i] = row
	}
	return q, nil
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
