// Package extract implements the paper's primary contribution: extraction
// expressions E1⟨p⟩E2 over a finite alphabet (Definition 4.1), their parse/
// extract semantics, the unambiguity consistency requirement (Definition
// 4.2) with two polynomial decision procedures (Propositions 5.4 and 5.5),
// the resilience partial order ⪯ (Definition 4.4), the maximality test
// (Proposition 5.7 / Corollary 5.8), and the synthesis algorithms —
// left-filtering maximization (Algorithm 6.2), its mirror image, and the
// pivot maximization framework (Propositions 6.6–6.8).
//
// Two engines run compiled expressions. Compile builds the two-scan Matcher
// (forward E1-DFA plus one backward sweep, O(n) per document), which serves
// materialized pages and is the reference oracle; CompileStream builds the
// one-pass StreamMatcher, which resolves the suffix conjunct online with a
// bounded thread set so documents can be matched token by token as they
// arrive, in O(1) memory beyond the match region. It keeps only the
// leftmost candidate, the one split an unambiguous wrapper serves, and its
// Find provably equals the two-scan Matcher.Find (THEORY.md, "One-pass
// streaming extraction ≡ the two-scan matcher"); Expr.Splits and
// Matcher.All give the full split set. Tuple generalizes E1⟨p⟩E2 to k
// marks, E0⟨p1⟩E1…⟨pk⟩Ek.
//
// For high-throughput serving, TieredCache memoizes compiled artifacts of
// both kinds — single-pivot (Compiled) and tuple (CompiledTuple) — under a
// content address, a hash of the canonicalized expression and its alphabet
// (Key, KeyTuple). One load path serves both kinds: one memory tier (Cache:
// LRU eviction and singleflight deduplication of concurrent cold compiles
// under one capacity) over an optional disk tier (DiskCache) (see
// ExampleCache).
package extract

import (
	"errors"
	"fmt"
	"sync"

	"resilex/internal/lang"
	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// Sentinel errors. Budget exhaustion from the automata layer is passed
// through wrapping machine.ErrBudget.
var (
	// ErrAmbiguous is returned by operations that require an unambiguous
	// input expression (Definition 4.2).
	ErrAmbiguous = errors.New("extract: expression is ambiguous")
	// ErrUnbounded is returned by the left-filtering maximization when the
	// prefix expression matches an unbounded number of marked symbols, so
	// the Algorithm 6.2 loop would not terminate (Lemma 6.4(4,5)).
	ErrUnbounded = errors.New("extract: expression matches an unbounded number of marked symbols")
	// ErrNotApplicable is returned when a maximization strategy's side
	// conditions do not hold for the input.
	ErrNotApplicable = errors.New("extract: maximization strategy not applicable")
)

// Expr is an extraction expression E1⟨p⟩E2 (Definition 4.1): a regular
// expression with one marked occurrence of the symbol p. The component
// languages are canonicalized; when the expression was built from syntax,
// the original ASTs are retained (they drive pivot discovery and printing).
// Expr values are immutable and safe for concurrent use.
type Expr struct {
	left, right lang.Language
	p           symtab.Symbol
	sigma       symtab.Alphabet
	opt         machine.Options

	// Optional syntax, nil when the expression was synthesized.
	leftAST, rightAST *rx.Node

	// Lazily compiled matcher, shared by all copies of this value so that
	// Splits/Extract pay compilation once.
	mc *matcherBox
}

type matcherBox struct {
	once sync.Once
	m    *Matcher
}

// New builds E1⟨p⟩E2 from component languages. The alphabet is the union of
// both languages' alphabets and {p}; components are promoted to it.
func New(left lang.Language, p symtab.Symbol, right lang.Language) Expr {
	sigma := left.Sigma().Union(right.Sigma()).With(p)
	l, r := promote(left, sigma), promote(right, sigma)
	return Expr{left: l, right: r, p: p, sigma: sigma, opt: left.Options(), mc: &matcherBox{}}
}

func promote(l lang.Language, sigma symtab.Alphabet) lang.Language {
	if l.Sigma().Equal(sigma) {
		return l
	}
	// Union with ∅ over the wider alphabet re-homes the language. Run it
	// without the time bound: the product has a 1-state right operand, so
	// this is linear in an already-bounded input and cannot fail.
	rehomed := l
	if l.Options().Ctx != nil {
		rehomed = l.WithOptions(l.Options().WithoutContext())
	}
	out, err := rehomed.Union(lang.Empty(sigma, rehomed.Options()))
	if err != nil {
		panic(err) // product of a DFA with a 1-state DFA cannot exceed budget
	}
	return out.WithOptions(l.Options())
}

// FromAST builds an expression from component ASTs over sigma (which is
// widened to include p and all mentioned symbols).
func FromAST(left *rx.Node, p symtab.Symbol, right *rx.Node, sigma symtab.Alphabet, opt machine.Options) (Expr, error) {
	full := sigma.Union(left.Symbols()).Union(right.Symbols()).With(p)
	l, err := lang.FromRegex(left, full, opt)
	if err != nil {
		return Expr{}, fmt.Errorf("extract: left component: %w", err)
	}
	r, err := lang.FromRegex(right, full, opt)
	if err != nil {
		return Expr{}, fmt.Errorf("extract: right component: %w", err)
	}
	e := New(l, p, r)
	e.opt = opt
	e.leftAST, e.rightAST = left, right
	return e, nil
}

// Parse parses the concrete syntax "E1 <p> E2" (see internal/rx).
func Parse(src string, tab *symtab.Table, sigma symtab.Alphabet, opt machine.Options) (Expr, error) {
	m, err := rx.ParseMarked(src, tab, sigma)
	if err != nil {
		return Expr{}, err
	}
	return FromAST(m.Left, m.P, m.Right, m.Sigma, opt)
}

// MustParse is Parse panicking on error, for tests and examples.
func MustParse(src string, tab *symtab.Table, sigma symtab.Alphabet) Expr {
	e, err := Parse(src, tab, sigma, machine.Options{})
	if err != nil {
		panic(err)
	}
	return e
}

// Left returns L(E1).
func (e Expr) Left() lang.Language { return e.left }

// Right returns L(E2).
func (e Expr) Right() lang.Language { return e.right }

// P returns the marked symbol.
func (e Expr) P() symtab.Symbol { return e.p }

// Sigma returns the alphabet Σ.
func (e Expr) Sigma() symtab.Alphabet { return e.sigma }

// Options returns the state-budget options the expression carries.
func (e Expr) Options() machine.Options { return e.opt }

// WithOptions returns a copy of the expression whose subsequent
// construction work — Compile, maximization — runs under opt.
// The copy shares the component languages and the compiled-matcher cache.
func (e Expr) WithOptions(opt machine.Options) Expr {
	e.opt = opt
	return e
}

// LeftAST returns the syntactic form of E1 when the expression was built
// from syntax, else nil.
func (e Expr) LeftAST() *rx.Node { return e.leftAST }

// RightAST returns the syntactic form of E2 when available, else nil.
func (e Expr) RightAST() *rx.Node { return e.rightAST }

// Language returns L(E1⟨p⟩E2) = L(E1·p·E2), the set of parsed strings.
func (e Expr) Language() (lang.Language, error) {
	pl, err := lang.Single([]symtab.Symbol{e.p}, e.sigma, e.opt)
	if err != nil {
		return lang.Language{}, err
	}
	lp, err := e.left.Concat(pl)
	if err != nil {
		return lang.Language{}, err
	}
	return lp.Concat(e.right)
}

// Parses reports ρ ∈ L(E1⟨p⟩E2).
func (e Expr) Parses(word []symtab.Symbol) bool {
	return len(e.Splits(word)) > 0
}

// Splits returns every position i such that word[i] = p, word[:i] ∈ L(E1)
// and word[i+1:] ∈ L(E2) — i.e. every way the expression can extract from
// the word. Unambiguous expressions yield at most one position per word
// (Definition 4.2).
func (e Expr) Splits(word []symtab.Symbol) []int {
	return e.matcher().All(word)
}

// Extract returns the unique valid split position, or ok=false when the
// expression does not parse the word. For ambiguous expressions it returns
// the leftmost valid position; use Splits to detect multiplicity.
func (e Expr) Extract(word []symtab.Symbol) (pos int, ok bool) {
	return e.matcher().Find(word)
}

func (e Expr) matcher() *Matcher {
	if e.mc == nil {
		// Zero-value Expr (not produced by a constructor): no cache to share.
		return e.compileMatcher()
	}
	e.mc.once.Do(func() { e.mc.m = e.compileMatcher() })
	return e.mc.m
}

// Generalizes reports f ⪯ e in the resilience partial order of Definition
// 4.4: L(F1) ⊆ L(E1) and L(F2) ⊆ L(E2).
func (e Expr) Generalizes(f Expr) (bool, error) {
	if e.p != f.p {
		return false, nil
	}
	l, err := f.left.SubsetOf(e.left)
	if err != nil || !l {
		return false, err
	}
	return f.right.SubsetOf(e.right)
}

// Equal reports component-language equality (same p, L(E1)=L(F1),
// L(E2)=L(F2)). This is finer than equality of parsed languages: the paper
// notes p⟨p⟩ppp and pp⟨p⟩pp parse the same set but extract differently.
func (e Expr) Equal(f Expr) bool {
	return e.p == f.p && e.left.Equal(f.left) && e.right.Equal(f.right)
}

// String renders the expression as "E1 <p> E2" using the table. Synthesized
// components are rendered from their minimal DFAs via state elimination,
// with classes abbreviated against Σ.
func (e Expr) String(tab *symtab.Table) string {
	left, right := e.leftAST, e.rightAST
	if left == nil {
		left = rx.Simplify(e.left.Regex())
	}
	if right == nil {
		right = rx.Simplify(e.right.Regex())
	}
	ls := rx.PrintSigma(left, tab, e.sigma)
	rs := rx.PrintSigma(right, tab, e.sigma)
	out := ""
	if ls != "#eps" {
		out += ls + " "
	}
	out += "<" + rx.QuoteName(tab.Name(e.p)) + ">"
	if rs != "#eps" {
		out += " " + rs
	}
	return out
}

// Size reports the total minimal-DFA state count of both components — the
// size measure used in the experiment tables.
func (e Expr) Size() int { return e.left.States() + e.right.States() }
