// Package rx implements regular expressions over token alphabets.
//
// Expressions are abstract syntax trees over interned symbols
// (internal/symtab). Beyond the classical operators (∅, ε, symbol classes,
// concatenation, union, Kleene star) the AST supports the extended
// operators the paper uses as meta-notation — intersection, difference and
// complement — which internal/machine compiles via product automata, so
// expressions such as (Σ−p)* − E can be written and printed directly.
package rx

import (
	"fmt"
	"strings"

	"resilex/internal/symtab"
)

// Op identifies the operator at an AST node.
type Op int

// Operators. OpClass covers both single literals (singleton class) and the
// paper's (Σ−p) style classes. OpIntersect, OpDiff and OpComplement are the
// extended (non-Kleene) operators.
const (
	OpEmpty      Op = iota // ∅ — the empty language
	OpEpsilon              // ε — the singleton language {ε}
	OpClass                // one symbol drawn from a set
	OpConcat               // E1 · E2 · … · En
	OpUnion                // E1 | E2 | … | En
	OpStar                 // E*
	OpPlus                 // E+
	OpOpt                  // E?
	OpIntersect            // E1 & E2
	OpDiff                 // E1 − E2
	OpComplement           // !E (relative to a compile-time Σ)
)

// String names the operator for diagnostics.
func (op Op) String() string {
	switch op {
	case OpEmpty:
		return "empty"
	case OpEpsilon:
		return "epsilon"
	case OpClass:
		return "class"
	case OpConcat:
		return "concat"
	case OpUnion:
		return "union"
	case OpStar:
		return "star"
	case OpPlus:
		return "plus"
	case OpOpt:
		return "opt"
	case OpIntersect:
		return "intersect"
	case OpDiff:
		return "diff"
	case OpComplement:
		return "complement"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Node is an immutable regular-expression AST node. Construct nodes with the
// package constructors, which perform light algebraic simplification; do not
// mutate a Node after creation.
type Node struct {
	Op    Op
	Class symtab.Alphabet // OpClass only: the admissible symbols
	Subs  []*Node         // operands (OpConcat/OpUnion: n-ary; unary ops: one; OpIntersect/OpDiff: two)
}

var (
	emptyNode   = &Node{Op: OpEmpty}
	epsilonNode = &Node{Op: OpEpsilon}
)

// Empty returns ∅.
func Empty() *Node { return emptyNode }

// Epsilon returns ε.
func Epsilon() *Node { return epsilonNode }

// Sym returns the literal expression matching exactly the symbol s.
func Sym(s symtab.Symbol) *Node {
	return &Node{Op: OpClass, Class: symtab.NewAlphabet(s)}
}

// Class returns an expression matching any one symbol of the set. An empty
// set yields ∅.
func Class(set symtab.Alphabet) *Node {
	if set.IsEmpty() {
		return emptyNode
	}
	return &Node{Op: OpClass, Class: set}
}

// AnyOf is shorthand for Class over the listed symbols.
func AnyOf(syms ...symtab.Symbol) *Node {
	return Class(symtab.NewAlphabet(syms...))
}

// Concat returns E1·E2·…·En, flattening nested concatenations, dropping ε
// operands, and collapsing to ∅ if any operand is ∅.
func Concat(subs ...*Node) *Node {
	var flat []*Node
	for _, s := range subs {
		switch s.Op {
		case OpEmpty:
			return emptyNode
		case OpEpsilon:
			// identity
		case OpConcat:
			flat = append(flat, s.Subs...)
		default:
			flat = append(flat, s)
		}
	}
	switch len(flat) {
	case 0:
		return epsilonNode
	case 1:
		return flat[0]
	}
	return &Node{Op: OpConcat, Subs: flat}
}

// Union returns E1|E2|…|En, flattening nested unions, dropping ∅ operands,
// merging sibling classes, and deduplicating structurally equal operands.
func Union(subs ...*Node) *Node {
	var flat []*Node
	var classes symtab.Alphabet
	haveClass := false
	var collect func(*Node)
	collect = func(s *Node) {
		switch s.Op {
		case OpEmpty:
			// identity
		case OpUnion:
			for _, sub := range s.Subs {
				collect(sub)
			}
		case OpClass:
			classes = classes.Union(s.Class)
			haveClass = true
		default:
			flat = append(flat, s)
		}
	}
	for _, s := range subs {
		collect(s)
	}
	if haveClass {
		flat = append(flat, Class(classes))
	}
	// Structural dedup (quadratic; unions stay small in practice).
	var uniq []*Node
	for _, s := range flat {
		dup := false
		for _, u := range uniq {
			if Equal(s, u) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, s)
		}
	}
	switch len(uniq) {
	case 0:
		return emptyNode
	case 1:
		return uniq[0]
	}
	return &Node{Op: OpUnion, Subs: uniq}
}

// Star returns E*. (E*)* = E*, ∅* = ε* = ε, (E+)* = E*, (E?)* = E*.
func Star(sub *Node) *Node {
	switch sub.Op {
	case OpEmpty, OpEpsilon:
		return epsilonNode
	case OpStar:
		return sub
	case OpPlus, OpOpt:
		return Star(sub.Subs[0])
	}
	return &Node{Op: OpStar, Subs: []*Node{sub}}
}

// Plus returns E+. ∅+ = ∅, ε+ = ε, (E*)+ = E*, (E?)+ = E*.
func Plus(sub *Node) *Node {
	switch sub.Op {
	case OpEmpty:
		return emptyNode
	case OpEpsilon:
		return epsilonNode
	case OpStar:
		return sub
	case OpOpt:
		return Star(sub.Subs[0])
	case OpPlus:
		return sub
	}
	return &Node{Op: OpPlus, Subs: []*Node{sub}}
}

// Opt returns E?. ∅? = ε, ε? = ε, (E*)? = E*, (E+)? = E*, (E?)? = E?.
func Opt(sub *Node) *Node {
	switch sub.Op {
	case OpEmpty, OpEpsilon:
		return epsilonNode
	case OpStar:
		return sub
	case OpPlus:
		return Star(sub.Subs[0])
	case OpOpt:
		return sub
	}
	return &Node{Op: OpOpt, Subs: []*Node{sub}}
}

// Intersect returns E1 & E2. ∅ absorbs.
func Intersect(a, b *Node) *Node {
	if a.Op == OpEmpty || b.Op == OpEmpty {
		return emptyNode
	}
	if Equal(a, b) {
		return a
	}
	return &Node{Op: OpIntersect, Subs: []*Node{a, b}}
}

// Diff returns E1 − E2 (language difference). E − ∅ = E, ∅ − E = ∅, E − E = ∅.
func Diff(a, b *Node) *Node {
	if a.Op == OpEmpty {
		return emptyNode
	}
	if b.Op == OpEmpty {
		return a
	}
	if Equal(a, b) {
		return emptyNode
	}
	return &Node{Op: OpDiff, Subs: []*Node{a, b}}
}

// Complement returns !E, the complement relative to the Σ* fixed when the
// expression is compiled. !!E = E.
func Complement(a *Node) *Node {
	if a.Op == OpComplement {
		return a.Subs[0]
	}
	return &Node{Op: OpComplement, Subs: []*Node{a}}
}

// Repeat returns E·E·…·E (n times); n = 0 yields ε.
func Repeat(sub *Node, n int) *Node {
	if n < 0 {
		panic("rx: negative repeat count")
	}
	subs := make([]*Node, n)
	for i := range subs {
		subs[i] = sub
	}
	return Concat(subs...)
}

// Word returns the literal concatenation of the given symbols; empty input
// yields ε.
func Word(syms ...symtab.Symbol) *Node {
	subs := make([]*Node, len(syms))
	for i, s := range syms {
		subs[i] = Sym(s)
	}
	return Concat(subs...)
}

// ReverseNode returns an AST for the reversal of the language: concatenation
// operands flip order; union, intersection, difference, complement and the
// iteration operators commute with reversal (rev(Σ*) = Σ* makes complement
// safe). Used to run left-side algorithms on right-side context.
func ReverseNode(n *Node) *Node {
	switch n.Op {
	case OpConcat:
		subs := make([]*Node, len(n.Subs))
		for i, s := range n.Subs {
			subs[len(n.Subs)-1-i] = ReverseNode(s)
		}
		return Concat(subs...)
	case OpUnion:
		subs := make([]*Node, len(n.Subs))
		for i, s := range n.Subs {
			subs[i] = ReverseNode(s)
		}
		return Union(subs...)
	case OpStar:
		return Star(ReverseNode(n.Subs[0]))
	case OpPlus:
		return Plus(ReverseNode(n.Subs[0]))
	case OpOpt:
		return Opt(ReverseNode(n.Subs[0]))
	case OpIntersect:
		return Intersect(ReverseNode(n.Subs[0]), ReverseNode(n.Subs[1]))
	case OpDiff:
		return Diff(ReverseNode(n.Subs[0]), ReverseNode(n.Subs[1]))
	case OpComplement:
		return Complement(ReverseNode(n.Subs[0]))
	}
	return n
}

// Equal reports structural equality of two ASTs (after constructor
// normalization; it is not semantic language equality).
func Equal(a, b *Node) bool {
	if a == b {
		return true
	}
	if a.Op != b.Op || len(a.Subs) != len(b.Subs) {
		return false
	}
	if a.Op == OpClass && !a.Class.Equal(b.Class) {
		return false
	}
	for i := range a.Subs {
		if !Equal(a.Subs[i], b.Subs[i]) {
			return false
		}
	}
	return true
}

// Size is the number of AST nodes, counting a k-symbol class as one node.
// Used as the input-size measure in the complexity experiments.
func (n *Node) Size() int {
	size := 1
	for _, s := range n.Subs {
		size += s.Size()
	}
	return size
}

// HasExtendedOps reports whether the AST contains intersection, difference
// or complement nodes (which require product/complement automaton
// constructions rather than plain Thompson steps).
func (n *Node) HasExtendedOps() bool {
	switch n.Op {
	case OpIntersect, OpDiff, OpComplement:
		return true
	}
	for _, s := range n.Subs {
		if s.HasExtendedOps() {
			return true
		}
	}
	return false
}

// Symbols returns the set of symbols mentioned anywhere in the AST. Note
// this is a syntactic alphabet; the semantic Σ of a language may be larger.
func (n *Node) Symbols() symtab.Alphabet {
	var acc symtab.Alphabet
	n.walkSymbols(&acc)
	return acc
}

func (n *Node) walkSymbols(acc *symtab.Alphabet) {
	if n.Op == OpClass {
		*acc = acc.Union(n.Class)
	}
	for _, s := range n.Subs {
		s.walkSymbols(acc)
	}
}

// Walk calls fn for every node in the AST in preorder. If fn returns false
// the node's children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, s := range n.Subs {
		s.Walk(fn)
	}
}

// MatchesEpsilon reports whether ε ∈ L(n), computed syntactically where
// possible. For extended operators the answer requires automaton
// construction, so this returns (value, ok=false) when it cannot decide.
func (n *Node) MatchesEpsilon() (bool, bool) {
	switch n.Op {
	case OpEmpty, OpClass:
		return false, true
	case OpEpsilon, OpStar, OpOpt:
		return true, true
	case OpPlus:
		return n.Subs[0].MatchesEpsilon()
	case OpConcat:
		for _, s := range n.Subs {
			v, ok := s.MatchesEpsilon()
			if !ok {
				return false, false
			}
			if !v {
				return false, true
			}
		}
		return true, true
	case OpUnion:
		sawUnknown := false
		for _, s := range n.Subs {
			v, ok := s.MatchesEpsilon()
			if !ok {
				sawUnknown = true
				continue
			}
			if v {
				return true, true
			}
		}
		return false, !sawUnknown
	}
	return false, false
}

// GoString renders a debug view of the AST shape (ops only).
func (n *Node) GoString() string {
	var b strings.Builder
	var rec func(*Node)
	rec = func(n *Node) {
		b.WriteString(n.Op.String())
		if len(n.Subs) > 0 {
			b.WriteByte('(')
			for i, s := range n.Subs {
				if i > 0 {
					b.WriteByte(' ')
				}
				rec(s)
			}
			b.WriteByte(')')
		}
	}
	rec(n)
	return b.String()
}
