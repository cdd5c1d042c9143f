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
// state). Compile also cuts every edge into a doomed state, one from which
// no final state can be reached, so a run never adds one to a row.
//
// A row of the DAG is then determined by its shape, the sorted list of the
// live local states it holds, and a row's successor depends only on its
// shape and the next symbol. The forward pass walks this row automaton,
// which each arena memoizes: a (shape, symbol) edge names the next shape
// and, for each node of the row, its advance and split indexes into the
// next row. A memo hit costs one table load per position; a miss builds
// the edge from the layered table, the only place a run reads it. Nodes are
// implicit (position, index in row) pairs: a run stores each row's first
// node id and move offset, and one jump pointer per node, so its memory is
// O(live nodes + n) — the node count bounded by the MaxStates budget — and
// a row that comes out empty ends the pass.
//
// Arenas come from a pool on each Program, since a memo belongs to one
// program; a cursor returns its arena when Next reports exhaustion or
// fails, and an abandoned cursor simply keeps its arena out of the pool. A
// run that starts on a memo holding more than memoCap entries clears it
// first; no run clears it midway. The deadline is polled at position 0 and
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

// memoEntries bounds an arena's memo at the start of a run, counted in
// 4-byte table entries (shape states, transitions and node moves): 1 MB.
// The record wrappers' memos settle at a few hundred entries; a word whose
// rows never repeat grows one shape per position.
const memoEntries = 1 << 18

// Program is a compiled k-pivot spanner: the k+1 minimal segment DFAs of an
// extract.Tuple laid out as one layered table, plus the pivot symbols,
// ready to run over documents. A Program is safe for concurrent Run calls:
// each run works in its own pooled arena.
type Program struct {
	marks []symtab.Symbol
	sigma symtab.Alphabet
	opt   machine.Options

	idx   *machine.SymbolIndex
	width int // row length of table: |Σ| successors, then the split entry
	// table holds local state s's row at s*width: the advance successor on
	// symbol index a at +a (machine.NoState when it is doomed), the split
	// symbol index (machine.NoState when no split into a live state leaves
	// s) at +|Σ|, and the split target at +|Σ|+1.
	table []uint32
	final []bool // one per local state: it accepts in the last segment D_k
	start uint32 // local start state of D_0, machine.NoState when doomed

	memoCap int       // memoEntries; tests lower it to reach the clear
	arenas  sync.Pool // *arena, each with a memo of this program's rows
}

// Compile builds the multi-split program from a tuple expression. The
// segment DFAs are already minimal and complete over the tuple's alphabet
// (extract.NewTuple promotes them), so compilation is a linear repack plus
// one doomed-state sweep per segment — the budget/deadline work happened
// when the tuple was built.
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
	// (j, q) is doomed when D_j cannot accept from q, or when it can but
	// D_{j+1}'s start is doomed: a split is the only way out of a segment.
	doomed := make([][]bool, k+1)
	for j := k; j >= 0; j-- {
		doomed[j] = segs[j].Doomed()
		if j < k && doomed[j+1][segs[j+1].Start] {
			for q := range doomed[j] {
				doomed[j][q] = true
			}
		}
	}
	stride := sigma.Len()
	p := &Program{
		marks:   t.Marks(),
		sigma:   sigma,
		opt:     opt,
		idx:     idx,
		width:   stride + 2,
		table:   make([]uint32, 0, int(off[k+1])*(stride+2)),
		final:   make([]bool, off[k+1]),
		start:   segs[0].Start,
		memoCap: memoEntries,
	}
	if doomed[0][p.start] {
		p.start = machine.NoState
	}
	for j, d := range segs {
		for q, acc := range d.Accept {
			for _, to := range d.Table[q*stride : (q+1)*stride] {
				if doomed[j][to] {
					p.table = append(p.table, machine.NoState)
				} else {
					p.table = append(p.table, off[j]+to)
				}
			}
			switch {
			case j == k:
				p.final[off[j]+uint32(q)] = acc
				p.table = append(p.table, machine.NoState, 0)
			case acc && !doomed[j+1][segs[j+1].Start]:
				p.table = append(p.table, uint32(idx.Index(p.marks[j])), off[j+1]+segs[j+1].Start)
			default:
				p.table = append(p.table, machine.NoState, 0)
			}
		}
	}
	p.arenas.New = func() any { return &arena{memo: p.newMemo()} }
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

// memo is the row automaton of one program: its states are row shapes,
// interned by content, and its transitions are edges built on first use.
// Shape 0 is row 0's: the start state alone, or nothing when it is doomed.
type memo struct {
	nsym   int
	states []uint32 // the shapes' local states, back to back
	shape  []int32  // shape s is states[shape[s]:shape[s+1]]
	index  []int32  // open-addressed by content hash: 1 + shape id, 0 when free
	trans  []hop    // the edge of (shape s, symbol index a) at s*nsym+a, to = -1 until built
	moves  []move
	slot   []int32  // scratch over local states: index in the row being built, -1 when absent
	buf    []uint32 // scratch: the row being built
}

// hop is one row-automaton edge: the next shape, and where the moves of the
// source shape's nodes start in memo.moves, one per node.
type hop struct{ to, moves int32 }

// move is one node's successors as indexes into the next row, -1 for none.
type move struct{ adv, split int32 }

func (p *Program) newMemo() memo {
	m := memo{nsym: p.width - 2, shape: []int32{0}, index: make([]int32, 16), slot: make([]int32, len(p.final))}
	for i := range m.slot {
		m.slot[i] = -1
	}
	if p.start != machine.NoState {
		m.buf = append(m.buf, p.start)
	}
	m.intern(m.buf)
	return m
}

// entries is the memo's size, compared against Program.memoCap.
func (m *memo) entries() int { return len(m.states) + 2*len(m.trans) + 2*len(m.moves) }

func (m *memo) shapeOf(s int32) []uint32 { return m.states[m.shape[s]:m.shape[s+1]] }

// hashRow mixes a shape's states into an index-table hash.
func hashRow(row []uint32) int {
	h := uint32(len(row))
	for _, q := range row {
		h = (h ^ q) * 0x9e3779b1
		h ^= h >> 16
	}
	return int(h)
}

// intern returns the id of the shape holding exactly row, adding it when
// the memo has none yet.
func (m *memo) intern(row []uint32) int32 {
	n := int32(len(m.shape) - 1)
	if 2*int(n+1) > len(m.index) {
		m.rehash(2 * len(m.index))
	}
	mask := len(m.index) - 1
	for i := hashRow(row) & mask; ; i = (i + 1) & mask {
		id := m.index[i] - 1
		if id < 0 {
			m.index[i] = n + 1
			m.states = append(m.states, row...)
			m.shape = append(m.shape, int32(len(m.states)))
			for range m.nsym {
				m.trans = append(m.trans, hop{-1, -1})
			}
			return n
		}
		if slices.Equal(m.shapeOf(id), row) {
			return id
		}
	}
}

func (m *memo) rehash(size int) {
	m.index = make([]int32, size)
	mask := size - 1
	for id := int32(0); id < int32(len(m.shape)-1); id++ {
		i := hashRow(m.shapeOf(id)) & mask
		for m.index[i] != 0 {
			i = (i + 1) & mask
		}
		m.index[i] = id + 1
	}
}

// build adds the edge that leaves shape s on symbol index sym, reading the
// successors of the shape's states off the layered table.
func (p *Program) build(m *memo, s int32, sym int) hop {
	from := m.shapeOf(s)
	splitAt := p.width - 2
	next := m.buf[:0]
	for _, q := range from {
		r := p.table[int(q)*p.width:][:p.width]
		if t := r[sym]; t != machine.NoState && m.slot[t] < 0 {
			m.slot[t] = 0 // seen; its index comes once next is sorted
			next = append(next, t)
		}
		if t := r[splitAt+1]; r[splitAt] == uint32(sym) && m.slot[t] < 0 {
			m.slot[t] = 0
			next = append(next, t)
		}
	}
	slices.Sort(next)
	for x, t := range next {
		m.slot[t] = int32(x)
	}
	h := hop{moves: int32(len(m.moves))}
	for _, q := range from {
		r := p.table[int(q)*p.width:][:p.width]
		mv := move{-1, -1}
		if t := r[sym]; t != machine.NoState {
			mv.adv = m.slot[t]
		}
		if r[splitAt] == uint32(sym) {
			mv.split = m.slot[r[splitAt+1]]
		}
		m.moves = append(m.moves, mv)
	}
	for _, t := range next {
		m.slot[t] = -1
	}
	m.buf = next
	h.to = m.intern(next)
	m.trans[int(s)*m.nsym+sym] = h
	return h
}

// Jump-pointer sentinels, stored in a ref's pos: a node's jump is the first
// split-useful node on its advance chain, noJump when it is useful with no
// split ahead (an accepting path in the last layer), or useless when it
// lies on no source-to-sink path.
const (
	noJump  int32 = -1
	useless int32 = -2
)

// ref names a node: its position, which is its row, and its index in that
// row's shape.
type ref struct{ pos, idx int32 }

// row is one reached row of the DAG: its first node's id, and where its
// nodes' moves on the next symbol start in memo.moves (-1 for the last row).
type row struct{ first, moves int32 }

// arena is one run's storage plus the memo it keeps across runs, recycled
// through its program's pool.
type arena struct {
	memo
	rows  []row
	last  int32 // the last row's shape
	nodes int   // live nodes of the run: the sum of its row widths
	jump  []ref // per node id
	stack []ref // one split node per placed pivot
	vec   []int // the vector Next lends, read off stack
}

// at returns u's node id.
func (a *arena) at(u ref) int32 { return a.rows[u.pos].first + u.idx }

// move returns the successors of u, which must not lie in the last row.
func (a *arena) move(u ref) move { return a.moves[a.rows[u.pos].moves+u.idx] }

// Matches is the result of one Run: the pruned DAG plus an enumeration
// cursor. Tuples come out in lexicographic vector order with O(k) work per
// call. A Matches is single-use and not safe for concurrent access; rerun
// the program for a fresh cursor.
type Matches struct {
	p     *Program
	opt   machine.Options
	a     *arena // nil once Next has reported exhaustion or an error
	nodes int    // live nodes, for introspection

	started bool
	err     error
}

// Run executes the one forward pass plus the backward prune over word and
// returns an enumeration cursor. The node budget is opt.MaxStates with the
// usual machine.Options semantics (a node here is one reached (position,
// layer, state) triple from which a final state is reachable); exceeding it
// returns an error wrapping machine.ErrBudget, and an expired Options
// context returns one wrapping machine.ErrDeadline.
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
	a := p.arenas.Get().(*arena)
	if a.entries() > p.memoCap {
		a.memo = p.newMemo()
	}
	polls, err := p.forward(a, word, opt)
	phase.Count("machine_deadline_polls_total", polls)
	if err != nil {
		p.arenas.Put(a)
		phase.Fail(err)
		return nil, err
	}
	p.backward(a, len(word))
	a.stack = a.stack[:0]
	m := &Matches{p: p, opt: opt, a: a, nodes: a.nodes}
	phase.Attr("nodes", int64(m.nodes))
	phase.Attr("positions", int64(len(word)))
	obs.FromContext(opt.Ctx).Counter("spanner_run_nodes_total").Add(int64(m.nodes))
	return m, nil
}

// forward walks the memo's row automaton over word, recording each row's
// first node id and where its moves start. It stops early once a row comes
// out empty.
func (p *Program) forward(a *arena, word []symtab.Symbol, opt machine.Options) (polls int64, err error) {
	limit := min(budgetLimit(opt), math.MaxInt32-1) // node ids are int32
	s, first := int32(0), int32(0)                  // the row's shape and first node id
	width := a.shape[1]                             // shape 0's
	rows := a.rows[:0]
	defer func() {
		a.rows, a.last, a.nodes = append(rows, row{first: first, moves: -1}), s, int(first+width)
	}()
	for i := 0; i < len(word) && width > 0; i++ {
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
		h := a.trans[int(s)*a.nsym+sym]
		if h.to < 0 {
			h = p.build(&a.memo, s, sym)
		}
		rows = append(rows, row{first: first, moves: h.moves})
		s = h.to
		w := a.shape[s+1] - a.shape[s]
		if int(first)+int(width)+int(w) > limit {
			return polls, fmt.Errorf("spanner: DAG exceeds %d nodes: %w", limit, machine.ErrBudget)
		}
		first, width = first+width, w
	}
	return polls, nil
}

// backward sets every node's jump pointer, folding in usefulness
// (co-accessibility from a final node at position n). Both edge kinds lead
// to the next row, so one sweep from the last row up sees every successor
// settled.
func (p *Program) backward(a *arena, n int) {
	jump := slices.Grow(a.jump[:0], a.nodes)[:a.nodes]
	last := len(a.rows) - 1
	for x, q := range a.shapeOf(a.last) {
		j := ref{pos: useless}
		if last == n && p.final[q] {
			j.pos = noJump
		}
		jump[int(a.rows[last].first)+x] = j
	}
	for i := last - 1; i >= 0; i-- {
		r, next := a.rows[i], a.rows[i+1].first
		moves := a.moves[r.moves:][:next-r.first]
		for x, mv := range moves {
			j := ref{pos: useless}
			switch {
			case mv.split >= 0 && jump[next+mv.split].pos != useless:
				j = ref{int32(i), int32(x)}
			case mv.adv >= 0:
				j = jump[next+mv.adv]
			}
			jump[int(r.first)+x] = j
		}
	}
	a.jump = jump
}

// Nodes reports how many live (position, layer, state) triples the forward
// pass reached — the quantity the MaxStates budget bounds.
func (m *Matches) Nodes() int { return m.nodes }

// descend extends the stack from layer len(stack) to layer k by repeatedly
// jumping to the next split-useful node and taking its split edge — the
// lexicographically least completion of the current prefix. u is the useful
// node enumeration stands on at layer len(stack).
func (m *Matches) descend(u ref) {
	a := m.a
	for j := len(a.stack); j < len(m.p.marks); j++ {
		u = a.jump[a.at(u)] // a split node: an accepting path needs ≥1 more split
		a.stack = append(a.stack, u)
		u = ref{u.pos + 1, a.move(u).split}
	}
}

// vector reads the current vector off the stack into the arena's vector
// buffer, which Next lends out.
func (m *Matches) vector() []int {
	v := m.a.vec[:0]
	for _, u := range m.a.stack {
		v = append(v, int(u.pos))
	}
	m.a.vec = v
	return v
}

// release ends the cursor and returns its arena to the pool.
func (m *Matches) release(err error) {
	m.p.arenas.Put(m.a)
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
	a := m.a
	if !m.started {
		m.started = true
		if m.nodes == 0 || a.jump[0].pos == useless { // node 0 is (0, 0, start)
			m.release(nil)
			return nil, false, nil
		}
		m.descend(ref{})
		return m.vector(), true, nil
	}
	// Successor: pop split choices deepest-first until one has a later
	// alternative (a split-useful node further along its advance chain),
	// then complete minimally again.
	for stack := a.stack; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adv := a.move(u).adv
		if adv < 0 {
			continue
		}
		if w := a.jump[a.at(ref{u.pos + 1, adv})]; w.pos >= 0 {
			a.stack = append(stack, w)
			m.descend(ref{w.pos + 1, a.move(w).split})
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
