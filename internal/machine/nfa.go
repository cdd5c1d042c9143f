// Package machine implements the finite-automata substrate: Thompson
// construction, subset construction, product automata, Hopcroft
// minimization, language decision procedures (emptiness, universality,
// containment, equivalence), prefix/suffix quotients, bounded enumeration
// and DFA→regex state elimination.
//
// All automata run over an explicit finite alphabet Σ of interned symbols.
// Transitions are labeled with symbol *sets* so that the paper's ubiquitous
// (Σ−p) classes stay compact.
//
// Determinization is worst-case exponential (this is exactly the PSPACE
// obstruction of Theorem 5.12 in the paper), so every determinizing entry
// point takes a state budget and fails with ErrBudget instead of diverging.
// Compact flattens a finished DFA into a Dense table with uint32 state ids,
// the representation the one-pass streaming matcher steps through; it
// accepts every automaton the budget admits.
package machine

import (
	"context"
	"errors"
	"fmt"

	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// DefaultMaxStates is the determinization budget used when Options.MaxStates
// is zero. It is generous enough for every construction in the paper's
// examples and the experiment sweeps, while still bounding adversarial
// inputs.
const DefaultMaxStates = 1 << 20

// ErrBudget is returned (wrapped) when a construction would exceed its state
// budget. Callers experimenting with the PSPACE frontier (experiment E4)
// should detect it with errors.Is.
var ErrBudget = errors.New("machine: state budget exceeded")

// ErrDeadline is returned (wrapped) when a construction is abandoned because
// the Options context expired or was cancelled. Together with ErrBudget it
// bounds every worst-case-exponential loop in both time and memory.
var ErrDeadline = errors.New("machine: deadline exceeded")

// Options configures automaton constructions.
type Options struct {
	// MaxStates bounds the number of states any single construction may
	// create; 0 means DefaultMaxStates, negative means unlimited.
	MaxStates int
	// Ctx, when non-nil, is polled inside every determinizing loop; once it
	// is done the construction is abandoned with an error wrapping
	// ErrDeadline. nil means no time bound.
	Ctx context.Context
}

func (o Options) limit() int {
	switch {
	case o.MaxStates == 0:
		return DefaultMaxStates
	case o.MaxStates < 0:
		return int(^uint(0) >> 1)
	default:
		return o.MaxStates
	}
}

// WithContext returns a copy of the options whose constructions are bound by
// ctx in addition to the state budget.
func (o Options) WithContext(ctx context.Context) Options {
	o.Ctx = ctx
	return o
}

// WithoutContext strips the time bound, keeping the state budget. Internal
// helpers use it for constructions that are linear in an already-bounded
// input, so their "cannot happen" error paths stay genuinely unreachable.
func (o Options) WithoutContext() Options {
	o.Ctx = nil
	return o
}

// Err reports whether the options' context has expired or been cancelled,
// wrapping ErrDeadline if so. Construction loops poll it between states.
func (o Options) Err() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return fmt.Errorf("%w: %v", ErrDeadline, o.Ctx.Err())
	default:
		return nil
	}
}

// Edge is an NFA transition consuming one symbol from the set On.
type Edge struct {
	On symtab.Alphabet
	To int
}

// NFA is a nondeterministic finite automaton with ε-transitions and a set of
// start states. States are dense ints.
type NFA struct {
	Sigma  symtab.Alphabet
	Start  []int
	Accept []bool
	Eps    [][]int
	Edges  [][]Edge
}

// NumStates reports the number of states.
func (n *NFA) NumStates() int { return len(n.Accept) }

func newNFA(sigma symtab.Alphabet, states int) *NFA {
	return &NFA{
		Sigma:  sigma,
		Accept: make([]bool, states),
		Eps:    make([][]int, states),
		Edges:  make([][]Edge, states),
	}
}

func (n *NFA) addState() int {
	n.Accept = append(n.Accept, false)
	n.Eps = append(n.Eps, nil)
	n.Edges = append(n.Edges, nil)
	return len(n.Accept) - 1
}

func (n *NFA) addEps(from, to int) { n.Eps[from] = append(n.Eps[from], to) }
func (n *NFA) addEdge(from int, on symtab.Alphabet, to int) {
	if on.IsEmpty() {
		return
	}
	n.Edges[from] = append(n.Edges[from], Edge{On: on, To: to})
}

// closure expands the state set in-place (as a bitset) with ε-reachability.
func (n *NFA) closure(set []bool) {
	var stack []int
	for s, in := range set {
		if in {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.Eps[s] {
			if !set[t] {
				set[t] = true
				stack = append(stack, t)
			}
		}
	}
}

// move returns the ε-closed successor set of set under symbol sym.
func (n *NFA) move(set []bool, sym symtab.Symbol) []bool {
	out := make([]bool, n.NumStates())
	for s, in := range set {
		if !in {
			continue
		}
		for _, e := range n.Edges[s] {
			if e.On.Contains(sym) {
				out[e.To] = true
			}
		}
	}
	n.closure(out)
	return out
}

// startSet returns the ε-closed start set as a bitset.
func (n *NFA) startSet() []bool {
	set := make([]bool, n.NumStates())
	for _, s := range n.Start {
		set[s] = true
	}
	n.closure(set)
	return set
}

// Accepts reports whether the NFA accepts the word, by direct subset
// simulation (no determinization).
func (n *NFA) Accepts(word []symtab.Symbol) bool {
	set := n.startSet()
	for _, sym := range word {
		set = n.move(set, sym)
	}
	for s, in := range set {
		if in && n.Accept[s] {
			return true
		}
	}
	return false
}

// Reverse returns an NFA for the reversal of the language.
func (n *NFA) Reverse() *NFA {
	r := newNFA(n.Sigma, n.NumStates())
	for s := 0; s < n.NumStates(); s++ {
		for _, t := range n.Eps[s] {
			r.addEps(t, s)
		}
		for _, e := range n.Edges[s] {
			r.addEdge(e.To, e.On, s)
		}
		if n.Accept[s] {
			r.Start = append(r.Start, s)
		}
	}
	for _, s := range n.Start {
		r.Accept[s] = true
	}
	return r
}

// Clone returns a deep copy.
func (n *NFA) Clone() *NFA {
	c := newNFA(n.Sigma, n.NumStates())
	c.Start = append([]int(nil), n.Start...)
	copy(c.Accept, n.Accept)
	for s := range n.Eps {
		c.Eps[s] = append([]int(nil), n.Eps[s]...)
		c.Edges[s] = append([]Edge(nil), n.Edges[s]...)
	}
	return c
}

// frag is a Thompson fragment with one start and one accept state.
type frag struct{ start, end int }

// Compile translates a regular-expression AST into an NFA over sigma using
// Thompson's construction. Extended operators (intersection, difference,
// complement) are compiled via determinized products, so they consume state
// budget; plain regular operators never fail.
//
// Symbols mentioned in the AST that are outside sigma are an error: the
// language would not be well-defined relative to Σ.
func Compile(n *rx.Node, sigma symtab.Alphabet, opt Options) (_ *NFA, err error) {
	if !n.Symbols().SubsetOf(sigma) {
		return nil, fmt.Errorf("machine: expression mentions symbols outside Σ")
	}
	m := newNFA(sigma, 0)
	opt, ph := beginPhase(opt, "machine.compile")
	defer func() {
		ph.Attr("states", int64(m.NumStates()))
		endPhase(ph, err)
	}()
	f, err := m.build(n, opt)
	if err != nil {
		return nil, err
	}
	m.Start = []int{f.start}
	m.Accept[f.end] = true
	return m, nil
}

// MustCompile is Compile panicking on error; for tests and examples with
// plain (non-extended) expressions.
func MustCompile(n *rx.Node, sigma symtab.Alphabet) *NFA {
	m, err := Compile(n, sigma, Options{})
	if err != nil {
		panic(err)
	}
	return m
}

func (m *NFA) build(n *rx.Node, opt Options) (frag, error) {
	switch n.Op {
	case rx.OpEmpty:
		s, e := m.addState(), m.addState()
		return frag{s, e}, nil
	case rx.OpEpsilon:
		s, e := m.addState(), m.addState()
		m.addEps(s, e)
		return frag{s, e}, nil
	case rx.OpClass:
		s, e := m.addState(), m.addState()
		m.addEdge(s, n.Class, e)
		return frag{s, e}, nil
	case rx.OpConcat:
		cur, err := m.build(n.Subs[0], opt)
		if err != nil {
			return frag{}, err
		}
		for _, sub := range n.Subs[1:] {
			nxt, err := m.build(sub, opt)
			if err != nil {
				return frag{}, err
			}
			m.addEps(cur.end, nxt.start)
			cur = frag{cur.start, nxt.end}
		}
		return cur, nil
	case rx.OpUnion:
		s, e := m.addState(), m.addState()
		for _, sub := range n.Subs {
			f, err := m.build(sub, opt)
			if err != nil {
				return frag{}, err
			}
			m.addEps(s, f.start)
			m.addEps(f.end, e)
		}
		return frag{s, e}, nil
	case rx.OpStar:
		f, err := m.build(n.Subs[0], opt)
		if err != nil {
			return frag{}, err
		}
		s, e := m.addState(), m.addState()
		m.addEps(s, f.start)
		m.addEps(f.end, f.start)
		m.addEps(s, e)
		m.addEps(f.end, e)
		return frag{s, e}, nil
	case rx.OpPlus:
		f, err := m.build(n.Subs[0], opt)
		if err != nil {
			return frag{}, err
		}
		s, e := m.addState(), m.addState()
		m.addEps(s, f.start)
		m.addEps(f.end, f.start)
		m.addEps(f.end, e)
		return frag{s, e}, nil
	case rx.OpOpt:
		f, err := m.build(n.Subs[0], opt)
		if err != nil {
			return frag{}, err
		}
		s, e := m.addState(), m.addState()
		m.addEps(s, f.start)
		m.addEps(f.end, e)
		m.addEps(s, e)
		return frag{s, e}, nil
	case rx.OpIntersect, rx.OpDiff:
		a, err := m.subDFA(n.Subs[0], opt)
		if err != nil {
			return frag{}, err
		}
		b, err := m.subDFA(n.Subs[1], opt)
		if err != nil {
			return frag{}, err
		}
		var d *DFA
		if n.Op == rx.OpIntersect {
			d, err = Product(a, b, func(x, y bool) bool { return x && y }, opt)
		} else {
			d, err = Product(a, b, func(x, y bool) bool { return x && !y }, opt)
		}
		if err != nil {
			return frag{}, err
		}
		md, err := MinimizeOpt(d, opt)
		if err != nil {
			return frag{}, err
		}
		return m.embedDFA(md), nil
	case rx.OpComplement:
		a, err := m.subDFA(n.Subs[0], opt)
		if err != nil {
			return frag{}, err
		}
		mc, err := MinimizeOpt(a.Complement(), opt)
		if err != nil {
			return frag{}, err
		}
		return m.embedDFA(mc), nil
	}
	return frag{}, fmt.Errorf("machine: cannot compile op %v", n.Op)
}

// subDFA compiles a sub-AST to a minimal DFA (used for extended operators).
func (m *NFA) subDFA(n *rx.Node, opt Options) (*DFA, error) {
	sub, err := Compile(n, m.Sigma, opt)
	if err != nil {
		return nil, err
	}
	d, err := Determinize(sub, opt)
	if err != nil {
		return nil, err
	}
	return MinimizeOpt(d, opt)
}

// embedDFA splices a DFA into this NFA as a Thompson-style fragment.
func (m *NFA) embedDFA(d *DFA) frag {
	base := m.NumStates()
	for i := 0; i < d.NumStates(); i++ {
		m.addState()
	}
	for s := 0; s < d.NumStates(); s++ {
		for k, sym := range d.syms {
			t := d.Trans[s][k]
			m.addEdge(base+s, symtab.NewAlphabet(sym), base+t)
		}
	}
	start, end := m.addState(), m.addState()
	m.addEps(start, base+d.Start)
	for s := 0; s < d.NumStates(); s++ {
		if d.Accept[s] {
			m.addEps(base+s, end)
		}
	}
	return frag{start, end}
}

// FromDFA converts a DFA to an equivalent NFA (shared-structure free).
func FromDFA(d *DFA) *NFA {
	n := newNFA(d.Sigma, d.NumStates())
	n.Start = []int{d.Start}
	copy(n.Accept, d.Accept)
	for s := 0; s < d.NumStates(); s++ {
		// Group targets to merge parallel edges into classes.
		byTarget := map[int][]symtab.Symbol{}
		for k, sym := range d.syms {
			t := d.Trans[s][k]
			byTarget[t] = append(byTarget[t], sym)
		}
		for t, syms := range byTarget {
			n.addEdge(s, symtab.NewAlphabet(syms...), t)
		}
	}
	return n
}

// FromWord returns an NFA accepting exactly the given word over sigma.
func FromWord(word []symtab.Symbol, sigma symtab.Alphabet) *NFA {
	n := newNFA(sigma, len(word)+1)
	n.Start = []int{0}
	for i, sym := range word {
		n.addEdge(i, symtab.NewAlphabet(sym), i+1)
	}
	n.Accept[len(word)] = true
	return n
}

// Concat returns an NFA for L(a)·L(b). Both must share Σ.
func ConcatNFA(a, b *NFA) *NFA {
	out := a.Clone()
	out.Sigma = a.Sigma.Union(b.Sigma)
	base := out.NumStates()
	for i := 0; i < b.NumStates(); i++ {
		out.addState()
	}
	for s := 0; s < b.NumStates(); s++ {
		for _, t := range b.Eps[s] {
			out.addEps(base+s, base+t)
		}
		for _, e := range b.Edges[s] {
			out.addEdge(base+s, e.On, base+e.To)
		}
		out.Accept[base+s] = b.Accept[s]
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.Accept[s] {
			out.Accept[s] = false
			for _, t := range b.Start {
				out.addEps(s, base+t)
			}
		}
	}
	return out
}

// UnionNFA returns an NFA for L(a) ∪ L(b).
func UnionNFA(a, b *NFA) *NFA {
	out := a.Clone()
	out.Sigma = a.Sigma.Union(b.Sigma)
	base := out.NumStates()
	for i := 0; i < b.NumStates(); i++ {
		out.addState()
	}
	for s := 0; s < b.NumStates(); s++ {
		for _, t := range b.Eps[s] {
			out.addEps(base+s, base+t)
		}
		for _, e := range b.Edges[s] {
			out.addEdge(base+s, e.On, base+e.To)
		}
		out.Accept[base+s] = b.Accept[s]
	}
	for _, t := range b.Start {
		out.Start = append(out.Start, base+t)
	}
	return out
}
