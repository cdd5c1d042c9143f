// Package spanner generalizes the paper's single-pivot extraction
// expression E1⟨p⟩E2 to k pivots
//
//	E0⟨p1⟩E1⟨p2⟩E2 … ⟨pk⟩Ek
//
// compiled into one multi-split automaton pass: a restricted document
// spanner (Fagin et al., "Document Spanners") that enumerates every
// extraction vector of a word, not just the unique one. Where
// extract.Tuple.Extract answers "the vector, if unambiguous", a compiled
// Program answers "all vectors, in lexicographic order, with O(k) delay
// between consecutive tuples after a single linear pass" — the record
// workload of production wrappers (many repeated (name, price, …) rows per
// page).
//
// The construction is a layered product DAG. A node (i, j, q) means: the
// first i symbols are consumed, pivots p1…pj are already placed, and the
// minimal DFA D_j of segment E_j sits in state q on the gap read since
// pivot j. Two edge kinds leave a node, both consuming word[i]:
//
//	advance: (i, j, q) → (i+1, j, D_j(q, word[i]))       gap grows
//	split:   (i, j, q) → (i+1, j+1, start(D_{j+1}))      word[i] is pivot j+1
//	         (enabled iff D_j accepts q and word[i] = p_{j+1})
//
// Both successors are unique, so the DAG is a binary-decision diagram over
// "is position i the next pivot": source-to-sink paths and extraction
// vectors are in bijection, with the vector read off a path's split
// positions. A backward co-accessibility pass keeps only useful nodes, and
// a jump pointer per useful node (the first split-useful node on its
// advance chain) makes enumeration constant-delay in the sense of
// Florenzano et al. ("Constant Delay Algorithms for Regular Document
// Spanners"): O(k) pointer hops per emitted tuple, independent of the
// document length. THEORY.md ("k-ary spanner extraction in one pass")
// carries the invariant argument and the per-pivot unambiguity lift.
//
// Representation. Compile concatenates the k+1 dense segment tables into
// one layered table over a single local state space: (j, q) is one local
// state, and each state's row carries its |Σ| advance successors plus one
// split entry (the next pivot's symbol index and the next segment's start
// state). The forward pass resolves each position's symbol index once and
// makes one row load per node. Nodes are appended row by row to a flat
// arena, deduplicated by a per-row slot table over the local states, and
// each keeps its state, position, both successors and its jump pointer, so
// memory is O(reached nodes + |states|) — bounded by the MaxStates budget —
// and a row that comes out empty ends the pass. Arenas come from one
// package-level pool shared by every Program; a cursor returns its arena
// when Next reports exhaustion or fails, and an abandoned cursor simply
// keeps its arena out of the pool. The deadline is polled at position 0 and
// then every pollStride positions.
package spanner

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

// pollStride is how many positions the forward pass runs between two
// deadline polls.
const pollStride = 1024

// Program is a compiled k-pivot spanner: the k+1 minimal segment DFAs of an
// extract.Tuple laid out as one layered table, plus the pivot symbols,
// ready to run over documents. A Program is immutable and safe for
// concurrent Run calls.
type Program struct {
	marks []symtab.Symbol
	sigma symtab.Alphabet
	opt   machine.Options

	idx   *machine.SymbolIndex
	width int // row length of table: |Σ| successors, then the split entry
	// table holds local state s's row at s*width: the advance successor on
	// symbol index a at +a, the split symbol index (machine.NoState when no
	// split leaves s) at +|Σ|, and the split target at +|Σ|+1.
	table []uint32
	final []bool // one per local state: it accepts in the last segment D_k
	start uint32 // local start state of D_0
}

// Compile builds the multi-split program from a tuple expression. The
// segment DFAs are already minimal and complete over the tuple's alphabet
// (extract.NewTuple promotes them), so compilation is a linear repack — the
// budget/deadline work happened when the tuple was built.
func Compile(t *extract.Tuple, opt machine.Options) (*Program, error) {
	if t == nil {
		return nil, fmt.Errorf("spanner: nil tuple")
	}
	sigma := t.Sigma()
	idx, err := machine.NewSymbolIndex(sigma)
	if err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	k := t.Arity()
	segs := make([]*machine.Dense, k+1)
	off := make([]uint32, k+2) // off[j]: local id of D_j's state 0
	for j := range segs {
		d := t.Segment(j).DFA()
		if !d.Sigma.Equal(sigma) {
			return nil, fmt.Errorf("spanner: segment %d is not over the tuple's alphabet", j)
		}
		if segs[j], err = d.Compact(); err != nil {
			return nil, fmt.Errorf("spanner: segment %d: %w", j, err)
		}
		states := uint64(off[j]) + uint64(d.NumStates())
		if states > math.MaxInt32 {
			return nil, fmt.Errorf("spanner: %d segment states exceed the node-id space: %w", states, machine.ErrBudget)
		}
		off[j+1] = uint32(states)
	}
	stride := sigma.Len()
	p := &Program{
		marks: t.Marks(),
		sigma: sigma,
		opt:   opt,
		idx:   idx,
		width: stride + 2,
		table: make([]uint32, 0, int(off[k+1])*(stride+2)),
		final: make([]bool, off[k+1]),
		start: segs[0].Start,
	}
	for j, d := range segs {
		for q, acc := range d.Accept {
			for _, to := range d.Table[q*stride : (q+1)*stride] {
				p.table = append(p.table, off[j]+to)
			}
			switch {
			case j == k:
				p.final[off[j]+uint32(q)] = acc
				p.table = append(p.table, machine.NoState, 0)
			case acc:
				p.table = append(p.table, uint32(idx.Index(p.marks[j])), off[j+1]+segs[j+1].Start)
			default:
				p.table = append(p.table, machine.NoState, 0)
			}
		}
	}
	if opt.Ctx != nil {
		obs.FromContext(opt.Ctx).Counter("spanner_compile_total").Inc()
	}
	return p, nil
}

// Arity returns the number of pivots k.
func (p *Program) Arity() int { return len(p.marks) }

// Marks returns the pivot symbols in order.
func (p *Program) Marks() []symtab.Symbol { return append([]symtab.Symbol(nil), p.marks...) }

// Sigma returns the program's alphabet.
func (p *Program) Sigma() symtab.Alphabet { return p.sigma }

// budgetLimit mirrors machine.Options' MaxStates semantics (0 → default,
// negative → unlimited) for the DAG node budget.
func budgetLimit(opt machine.Options) int {
	switch {
	case opt.MaxStates == 0:
		return machine.DefaultMaxStates
	case opt.MaxStates < 0:
		return int(^uint(0) >> 1)
	default:
		return opt.MaxStates
	}
}

// Jump-pointer sentinels: a node's jump is the id of the first split-useful
// node on its advance chain, noJump when it is useful with no split ahead
// (an accepting path in the last layer), or useless when it lies on no
// source-to-sink path.
const (
	noJump  int32 = -1
	useless int32 = -2
)

// node is one reached (position, layer, state) triple of the DAG.
type node struct {
	state uint32 // local state in the layered table
	pos   int32  // position: the row the node was appended to
	adv   int32  // advance successor, -1 when none
	split int32  // split successor, -1 when none
	jump  int32  // see noJump and useless
}

// arena is one run's DAG storage, recycled through arenas.
type arena struct {
	nodes []node
	slot  []int32 // local state → its node in the row being built, if ≥ that row's first id
	stack []int32 // one split node per placed pivot
	vec   []int   // the vector Next lends, read off stack
}

// arenas is the one pool every Program draws from.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// getArena takes an arena from the pool, emptied, with a slot table of
// states entries that hold no node.
func getArena(states int) *arena {
	a := arenas.Get().(*arena)
	if cap(a.slot) < states {
		a.slot = make([]int32, states)
	}
	a.slot = a.slot[:states]
	for i := range a.slot {
		a.slot[i] = -1
	}
	a.nodes = a.nodes[:0]
	a.stack = a.stack[:0]
	return a
}

// Matches is the result of one Run: the pruned DAG plus an enumeration
// cursor. Tuples come out in lexicographic vector order with O(k) work per
// call. A Matches is single-use and not safe for concurrent access; rerun
// the program for a fresh cursor.
type Matches struct {
	k     int
	opt   machine.Options
	a     *arena // nil once Next has reported exhaustion or an error
	nodes int    // reached nodes, for introspection

	started bool
	err     error
}

// Run executes the one forward pass plus the backward prune over word and
// returns an enumeration cursor. The node budget is opt.MaxStates with the
// usual machine.Options semantics (a node here is one reached (position,
// layer, state) triple); exceeding it returns an error wrapping
// machine.ErrBudget, and an expired Options context returns one wrapping
// machine.ErrDeadline.
func (p *Program) Run(word []symtab.Symbol) (*Matches, error) {
	return p.run(word, p.opt)
}

// RunContext is Run with the compile-time options additionally bound by ctx
// — the request-path entry point, where the program was compiled without a
// deadline but each request carries one. The returned cursor's Next also
// honors ctx.
func (p *Program) RunContext(ctx context.Context, word []symtab.Symbol) (*Matches, error) {
	if ctx == nil {
		return p.run(word, p.opt)
	}
	return p.run(word, p.opt.WithContext(ctx))
}

func (p *Program) run(word []symtab.Symbol, opt machine.Options) (*Matches, error) {
	var phase *obs.Phase
	if opt.Ctx != nil {
		_, phase = obs.StartPhase(opt.Ctx, "spanner.run")
		defer phase.End()
	}
	a := getArena(len(p.final))
	polls, err := p.forward(a, word, opt)
	phase.Count("machine_deadline_polls_total", polls)
	if err != nil {
		arenas.Put(a)
		phase.Fail(err)
		return nil, err
	}
	p.backward(a, len(word))
	m := &Matches{k: len(p.marks), opt: opt, a: a, nodes: len(a.nodes)}
	phase.Attr("nodes", int64(m.nodes))
	phase.Attr("positions", int64(len(word)))
	obs.FromContext(opt.Ctx).Counter("spanner_run_nodes_total").Add(int64(m.nodes))
	return m, nil
}

// forward appends the DAG row by row: row i+1 holds the successors of row
// i's nodes on word[i]. It stops early once a row comes out empty.
func (p *Program) forward(a *arena, word []symtab.Symbol, opt machine.Options) (polls int64, err error) {
	limit := min(budgetLimit(opt), math.MaxInt32-1) // node ids are int32
	splitAt := p.width - 2                          // row offset of the split entry
	nodes := append(a.nodes, node{state: p.start, adv: -1, split: -1})
	defer func() { a.nodes = nodes }()
	for i, lo := 0, 0; i < len(word) && lo < len(nodes); i++ {
		if i%pollStride == 0 {
			polls++
			if err := opt.Err(); err != nil {
				return polls, fmt.Errorf("spanner: forward pass at position %d: %w", i, err)
			}
		}
		sym := p.idx.Index(word[i])
		if sym < 0 {
			break // out of Σ: every gap dies here, so row i+1 is empty
		}
		hi := len(nodes)
		// Row i+1 holds at most two successors per node and one node per
		// state; growing once keeps the row's appends from moving nodes.
		nodes = slices.Grow(nodes, min(2*(hi-lo), len(a.slot)))
		first, pos := int32(hi), int32(i+1)
		for u := lo; u < hi; u++ {
			nd := &nodes[u]
			row := p.table[int(nd.state)*p.width:][:p.width]
			nodes, nd.adv = a.reach(nodes, row[sym], first, pos)
			if row[splitAt] == uint32(sym) {
				nodes, nd.split = a.reach(nodes, row[splitAt+1], first, pos)
			}
			if len(nodes) > limit {
				return polls, fmt.Errorf("spanner: DAG exceeds %d nodes: %w", limit, machine.ErrBudget)
			}
		}
		lo = hi
	}
	return polls, nil
}

// reach returns the node of state t in the row being built, whose ids start
// at first, appending it at position pos when the row holds none yet. The
// caller has grown nodes, so the append never moves it.
func (a *arena) reach(nodes []node, t uint32, first, pos int32) ([]node, int32) {
	if v := a.slot[t]; v >= first {
		return nodes, v
	}
	v := int32(len(nodes))
	a.slot[t] = v
	nodes = nodes[:v+1]
	nw := &nodes[v]
	nw.state, nw.pos, nw.adv, nw.split = t, pos, -1, -1
	return nodes, v
}

// backward sets every node's jump pointer, folding in usefulness
// (co-accessibility from an accepting node at position n). Both edge kinds
// lead to a later row, hence to a higher node id, so one sweep from the
// last node down sees every successor settled.
func (p *Program) backward(a *arena, n int) {
	nodes := a.nodes
	for u := len(nodes) - 1; u >= 0; u-- {
		nd := &nodes[u]
		switch {
		case nd.split >= 0 && nodes[nd.split].jump != useless:
			nd.jump = int32(u)
		case nd.adv >= 0 && nodes[nd.adv].jump != useless:
			nd.jump = nodes[nd.adv].jump
		case int(nd.pos) == n && p.final[nd.state]:
			nd.jump = noJump
		default:
			nd.jump = useless
		}
	}
}

// Nodes reports how many (position, layer, state) triples the forward pass
// materialized — the quantity the MaxStates budget bounds.
func (m *Matches) Nodes() int { return m.nodes }

// descend extends the stack from layer len(stack) to layer k by repeatedly
// jumping to the next split-useful node and taking its split edge — the
// lexicographically least completion of the current prefix. u is the useful
// node enumeration stands on at layer len(stack).
func (m *Matches) descend(u int32) {
	nodes := m.a.nodes
	for j := len(m.a.stack); j < m.k; j++ {
		u = nodes[u].jump // a split node: an accepting path needs ≥1 more split
		m.a.stack = append(m.a.stack, u)
		u = nodes[u].split
	}
}

// vector reads the current vector off the stack into the arena's vector
// buffer, which Next lends out.
func (m *Matches) vector() []int {
	v := m.a.vec[:0]
	for _, u := range m.a.stack {
		v = append(v, int(m.a.nodes[u].pos))
	}
	m.a.vec = v
	return v
}

// release ends the cursor and returns its arena to the pool.
func (m *Matches) release(err error) {
	arenas.Put(m.a)
	m.a, m.err = nil, err
}

// Next returns the next extraction vector in lexicographic order, or
// ok=false when the enumeration is exhausted. Each call does O(k) pointer
// hops — the constant-delay contract — and polls the Options deadline. Once
// Next has reported exhaustion or an error, every later call repeats it.
//
// The vector is borrowed: its k slots live in the cursor's pooled arena
// and are valid only until the next call to Next, which may hand the arena
// back to the pool for another run to overwrite. Copy a vector to keep it;
// All does.
func (m *Matches) Next() (vector []int, ok bool, err error) {
	if m.a == nil {
		return nil, false, m.err
	}
	if err := m.opt.Err(); err != nil {
		m.release(fmt.Errorf("spanner: enumeration: %w", err))
		return nil, false, m.err
	}
	nodes := m.a.nodes
	if !m.started {
		m.started = true
		if nodes[0].jump == useless { // node 0 is (0, 0, start)
			m.release(nil)
			return nil, false, nil
		}
		m.descend(0)
		return m.vector(), true, nil
	}
	// Successor: pop split choices deepest-first until one has a later
	// alternative (a split-useful node further along its advance chain),
	// then complete minimally again.
	for stack := m.a.stack; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := nodes[u].adv
		if v < 0 {
			continue
		}
		if w := nodes[v].jump; w >= 0 {
			m.a.stack = append(stack, w)
			m.descend(nodes[w].split)
			return m.vector(), true, nil
		}
	}
	m.release(nil)
	return nil, false, nil
}

// All drains the cursor, returning a copy of every extraction vector in
// lexicographic order. Convenience for tests and batch callers; streaming
// callers should prefer Next.
func (m *Matches) All() ([][]int, error) {
	var out [][]int
	for {
		v, ok, err := m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, slices.Clone(v))
	}
}
