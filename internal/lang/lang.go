// Package lang provides the regular-language value type the paper's
// constructions manipulate: a Boolean algebra over an explicit finite
// alphabet Σ, concatenation and iteration, the prefix/suffix factoring
// operators of Definition 5.1, the finite sequence filtering operator
// E‖p,n of Definition 6.1, and the boundedness analysis behind Algorithm
// 6.2's applicability condition.
//
// A Language is an immutable value canonicalized to a minimal DFA, so
// equality and containment are cheap and deterministic. Operations that
// determinize may exceed a state budget and return an error wrapping
// machine.ErrBudget — this is the PSPACE obstruction of Theorem 5.12
// surfacing, not a bug.
package lang

import (
	"fmt"

	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// Language is a regular language over an explicit alphabet, canonically
// represented by its minimal complete DFA. The zero value is not useful;
// construct languages with the package constructors.
type Language struct {
	sigma symtab.Alphabet
	min   *machine.DFA
	opt   machine.Options
}

// Sigma returns the alphabet Σ the language is defined over.
func (l Language) Sigma() symtab.Alphabet { return l.sigma }

// DFA exposes the canonical minimal DFA (do not mutate).
func (l Language) DFA() *machine.DFA { return l.min }

// States reports the number of states of the minimal DFA — the canonical
// size measure used by the experiments.
func (l Language) States() int { return l.min.NumStates() }

// Options returns the state budget options carried by this language.
func (l Language) Options() machine.Options { return l.opt }

// WithOptions returns the same language carrying different construction
// options (budget and/or deadline) for subsequent operations.
func (l Language) WithOptions(opt machine.Options) Language {
	l.opt = opt
	return l
}

func fromDFA(d *machine.DFA, opt machine.Options) (Language, error) {
	min, err := machine.MinimizeOpt(d, opt)
	if err != nil {
		return Language{}, err
	}
	return Language{sigma: d.Sigma, min: min, opt: opt}, nil
}

// FromDFA canonicalizes an already-deterministic automaton into a Language
// without re-determinizing: only the (polynomial) minimization runs. This is
// the general restore path for DFAs of unknown provenance — a decoded DFA
// re-enters the Language invariant (canonical minimal form) at polynomial
// cost, so warm starts never pay the worst-case exponential subset
// construction again.
func FromDFA(d *machine.DFA, opt machine.Options) (Language, error) {
	return fromDFA(d, opt)
}

// FromMinimalDFA wraps a DFA that is already in canonical minimal form —
// one this package minimized earlier and that was restored verbatim, as
// internal/codec's checksum guarantees for persisted artifacts. No
// construction runs at all, which is what makes artifact decode linear.
// Callers who cannot vouch for canonical minimality must use FromDFA: a
// non-minimal machine here would break the Language invariant that equal
// languages have structurally equal minimal DFAs.
func FromMinimalDFA(d *machine.DFA, opt machine.Options) Language {
	return Language{sigma: d.Sigma, min: d, opt: opt}
}

// FromNFA canonicalizes an NFA into a Language.
func FromNFA(n *machine.NFA, opt machine.Options) (Language, error) {
	d, err := machine.Determinize(n, opt)
	if err != nil {
		return Language{}, err
	}
	return fromDFA(d, opt)
}

// FromRegex compiles a regular-expression AST over sigma.
func FromRegex(e *rx.Node, sigma symtab.Alphabet, opt machine.Options) (Language, error) {
	n, err := machine.Compile(e, sigma, opt)
	if err != nil {
		return Language{}, err
	}
	return FromNFA(n, opt)
}

// Parse compiles the concrete syntax of internal/rx over sigma ∪ {mentioned
// identifiers}.
func Parse(src string, tab *symtab.Table, sigma symtab.Alphabet, opt machine.Options) (Language, error) {
	e, err := rx.Parse(src, tab, sigma)
	if err != nil {
		return Language{}, err
	}
	full, err := rx.Sigma(src, tab, sigma)
	if err != nil {
		return Language{}, err
	}
	return FromRegex(e, full, opt)
}

// Empty returns ∅ over sigma. The construction is constant-size, so it runs
// without the options' time bound and its error path is a true invariant.
func Empty(sigma symtab.Alphabet, opt machine.Options) Language {
	n, _ := machine.Compile(rx.Empty(), sigma, opt.WithoutContext())
	l, err := FromNFA(n, opt.WithoutContext())
	if err != nil {
		panic(err) // cannot happen: two-state automaton, no deadline
	}
	l.opt = opt
	return l
}

// EpsilonOnly returns {ε} over sigma.
func EpsilonOnly(sigma symtab.Alphabet, opt machine.Options) Language {
	n, _ := machine.Compile(rx.Epsilon(), sigma, opt.WithoutContext())
	l, err := FromNFA(n, opt.WithoutContext())
	if err != nil {
		panic(err) // cannot happen: two-state automaton, no deadline
	}
	l.opt = opt
	return l
}

// Universal returns Σ*.
func Universal(sigma symtab.Alphabet, opt machine.Options) Language {
	n, _ := machine.Compile(rx.Star(rx.Class(sigma)), sigma, opt.WithoutContext())
	l, err := FromNFA(n, opt.WithoutContext())
	if err != nil {
		panic(err) // cannot happen: one-state automaton, no deadline
	}
	l.opt = opt
	return l
}

// Single returns {w} for a single word.
func Single(word []symtab.Symbol, sigma symtab.Alphabet, opt machine.Options) (Language, error) {
	for _, s := range word {
		if !sigma.Contains(s) {
			return Language{}, fmt.Errorf("lang: word symbol %d outside Σ", s)
		}
	}
	return FromNFA(machine.FromWord(word, sigma), opt)
}

// FromWords returns the finite language of the given words.
func FromWords(words [][]symtab.Symbol, sigma symtab.Alphabet, opt machine.Options) (Language, error) {
	for _, w := range words {
		for _, s := range w {
			if !sigma.Contains(s) {
				return Language{}, fmt.Errorf("lang: word symbol %d outside Σ", s)
			}
		}
	}
	return FromNFA(machine.WordsNFA(words, sigma), opt)
}

// withSigma re-homes the language over a (super-)alphabet: new symbols lead
// to a dead state, preserving the word set.
func (l Language) withSigma(sigma symtab.Alphabet) Language {
	if l.sigma.Equal(sigma) {
		return l
	}
	if !l.sigma.SubsetOf(sigma) {
		panic("lang: alphabet shrink would change the language")
	}
	n := machine.FromDFA(l.min)
	n.Sigma = sigma
	out, err := FromNFA(n, l.opt.WithoutContext())
	if err != nil {
		panic(err) // determinizing a DFA re-homed over a larger Σ cannot blow up
	}
	out.opt = l.opt
	return out
}

// align promotes both operands to the union alphabet.
func align(a, b Language) (Language, Language) {
	if a.sigma.Equal(b.sigma) {
		return a, b
	}
	u := a.sigma.Union(b.sigma)
	return a.withSigma(u), b.withSigma(u)
}

func (l Language) product(o Language, op func(bool, bool) bool) (Language, error) {
	a, b := align(l, o)
	d, err := machine.Product(a.min, b.min, op, l.opt)
	if err != nil {
		return Language{}, err
	}
	return fromDFA(d, l.opt)
}

// Union returns L ∪ M.
func (l Language) Union(o Language) (Language, error) {
	return l.product(o, func(x, y bool) bool { return x || y })
}

// Intersect returns L ∩ M.
func (l Language) Intersect(o Language) (Language, error) {
	return l.product(o, func(x, y bool) bool { return x && y })
}

// Minus returns L − M.
func (l Language) Minus(o Language) (Language, error) {
	return l.product(o, func(x, y bool) bool { return x && !y })
}

// Complement returns Σ* − L: a linear flip of the (already minimal) accept
// set, so it runs without the options' time bound.
func (l Language) Complement() Language {
	out, err := fromDFA(l.min.Complement(), l.opt.WithoutContext())
	if err != nil {
		panic(err) // cannot happen: no deadline, no determinization
	}
	out.opt = l.opt
	return out
}

// Concat returns L·M.
func (l Language) Concat(o Language) (Language, error) {
	a, b := align(l, o)
	n := machine.ConcatNFA(machine.FromDFA(a.min), machine.FromDFA(b.min))
	return FromNFA(n, l.opt)
}

// Star returns L*.
func (l Language) Star() (Language, error) {
	e := machine.ToRegex(l.min)
	return FromRegex(rx.Star(e), l.sigma, l.opt)
}

// IsEmpty reports L = ∅.
func (l Language) IsEmpty() bool { return l.min.IsEmpty() }

// IsUniversal reports L = Σ*.
func (l Language) IsUniversal() bool { return l.min.IsUniversal() }

// Contains reports w ∈ L.
func (l Language) Contains(word []symtab.Symbol) bool { return l.min.Accepts(word) }

// ContainsEpsilon reports ε ∈ L.
func (l Language) ContainsEpsilon() bool { return l.min.Accept[l.min.Start] }

// Equal reports L = M (canonical minimal DFAs over the aligned alphabet).
func (l Language) Equal(o Language) bool {
	a, b := align(l, o)
	return machine.StructurallyEqual(a.min, b.min)
}

// SubsetOf reports L ⊆ M.
func (l Language) SubsetOf(o Language) (bool, error) {
	a, b := align(l, o)
	return machine.Subset(a.min, b.min, l.opt)
}

// Witness returns a shortest member, or ok=false for ∅.
func (l Language) Witness() ([]symtab.Symbol, bool) { return l.min.Witness() }

// CounterExample returns a shortest word distinguishing L from M.
func (l Language) CounterExample(o Language) ([]symtab.Symbol, bool, error) {
	a, b := align(l, o)
	return machine.CounterExample(a.min, b.min, l.opt)
}

// Words enumerates all members up to maxLen (test oracle; exponential).
func (l Language) Words(maxLen int) [][]symtab.Symbol { return l.min.Enumerate(maxLen) }

// Regex renders the language as a regular-expression AST via state
// elimination of the minimal DFA.
func (l Language) Regex() *rx.Node { return machine.ToRegex(l.min) }

// LeftFactor returns by\L = { α | ∃β ∈ L(by), β·α ∈ L } — the prefix
// factoring of Definition 5.1, computed in polynomial time (Lemma 5.2).
func (l Language) LeftFactor(by Language) (Language, error) {
	a, b := align(l, by)
	return FromNFA(machine.LeftQuotient(machine.FromDFA(a.min), machine.FromDFA(b.min)), l.opt)
}

// RightFactor returns L/by = { α | ∃β ∈ L(by), α·β ∈ L } — the suffix
// factoring of Definition 5.1.
func (l Language) RightFactor(by Language) (Language, error) {
	a, b := align(l, by)
	return FromNFA(machine.RightQuotient(machine.FromDFA(a.min), machine.FromDFA(b.min)), l.opt)
}

// FilterCount implements the finite sequence filtering operator E‖p,n of
// Definition 6.1: the members of L containing exactly n occurrences of p.
func (l Language) FilterCount(p symtab.Symbol, n int) (Language, error) {
	if n < 0 {
		return Language{}, fmt.Errorf("lang: negative filter count %d", n)
	}
	sigma := l.sigma.With(p)
	noP := rx.Star(rx.Class(sigma.Without(p)))
	e := noP
	for i := 0; i < n; i++ {
		e = rx.Concat(e, rx.Sym(p), noP)
	}
	counter, err := FromRegex(e, sigma, l.opt)
	if err != nil {
		return Language{}, err
	}
	return l.Intersect(counter)
}

// MaxOccurrences returns the largest number of occurrences of p over all
// members of L, and bounded=false when that number is unbounded (some member
// family pumps p). For L = ∅ it returns (0, true) vacuously with empty=true.
//
// This decides the applicability condition of Algorithm 6.2 ("E matches a
// bounded number of p's", Lemma 6.4(4,5)) in time linear in the DFA: p is
// unbounded iff some useful p-transition lies on a cycle of useful states;
// otherwise the maximum is a longest-path count over the condensation DAG.
func (l Language) MaxOccurrences(p symtab.Symbol) (max int, bounded bool) {
	d := l.min
	if !l.sigma.Contains(p) {
		return 0, true
	}
	useful := usefulStates(d)
	if d.IsEmpty() {
		return 0, true
	}
	// SCCs over useful states (iterative Tarjan).
	scc := sccIDs(d, useful)
	// A p-edge within one SCC ⇒ unbounded.
	n := d.NumStates()
	for s := 0; s < n; s++ {
		if !useful[s] {
			continue
		}
		t := d.Step(s, p)
		if t >= 0 && useful[t] && scc[s] == scc[t] {
			return 0, false
		}
	}
	// No p-transition lies on a cycle, so "max p's from state s to an
	// accepting state" is a well-defined longest-path problem with
	// nonnegative weights and no positive-weight cycle; Bellman-Ford-style
	// relaxation converges in at most |states| sweeps.
	const negInf = -1 << 30
	best := make([]int, n)
	for s := range best {
		if useful[s] && d.Accept[s] {
			best[s] = 0
		} else {
			best[s] = negInf
		}
	}
	for sweep := 0; ; sweep++ {
		changed := false
		for s := 0; s < n; s++ {
			if !useful[s] {
				continue
			}
			for k, sym := range d.Symbols() {
				t := d.Trans[s][k]
				if !useful[t] || best[t] == negInf {
					continue
				}
				w := 0
				if sym == p {
					w = 1
				}
				if best[t]+w > best[s] {
					best[s] = best[t] + w
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if sweep > n+1 {
			panic("lang: MaxOccurrences failed to converge (positive cycle despite SCC check)")
		}
	}
	if !useful[d.Start] || best[d.Start] < 0 {
		return 0, true
	}
	return best[d.Start], true
}

func usefulStates(d *machine.DFA) []bool {
	n := d.NumStates()
	reach := make([]bool, n)
	stack := []int{d.Start}
	reach[d.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for k := range d.Symbols() {
			t := d.Trans[s][k]
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	// live: can reach accept
	radj := make([][]int, n)
	for s := 0; s < n; s++ {
		for k := range d.Symbols() {
			radj[d.Trans[s][k]] = append(radj[d.Trans[s][k]], s)
		}
	}
	live := make([]bool, n)
	stack = stack[:0]
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			live[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pr := range radj[s] {
			if !live[pr] {
				live[pr] = true
				stack = append(stack, pr)
			}
		}
	}
	useful := make([]bool, n)
	for s := 0; s < n; s++ {
		useful[s] = reach[s] && live[s]
	}
	return useful
}

// sccIDs computes strongly connected component ids over the useful subgraph
// with an iterative Tarjan; ids are assigned in reverse topological order.
func sccIDs(d *machine.DFA, useful []bool) []int {
	n := d.NumStates()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	counter, nComp := 0, 0
	type frame struct{ v, ei int }
	succs := func(v int) []int {
		var out []int
		for k := range d.Symbols() {
			t := d.Trans[v][k]
			if useful[t] {
				out = append(out, t)
			}
		}
		return out
	}
	for root := 0; root < n; root++ {
		if !useful[root] || index[root] != unvisited {
			continue
		}
		var frames []frame
		frames = append(frames, frame{root, 0})
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			ss := succs(f.v)
			if f.ei < len(ss) {
				w := ss[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// finish v
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pv := frames[len(frames)-1].v
				if low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp
}
