package resilex

import (
	"context"
	"fmt"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/lang"
	"resilex/internal/learn"
	"resilex/internal/machine"
	"resilex/internal/perturb"
	"resilex/internal/rx"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// guard is the facade's recover() backstop: no internal invariant failure
// may crash a caller — it surfaces as an error wrapping ErrInternal instead.
// Every facade entry point that can run the construction pipeline defers it.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrInternal, r)
	}
}

// Core value types, re-exported from the implementation packages.
type (
	// Symbol is an interned token id.
	Symbol = symtab.Symbol
	// Table interns token names to Symbols.
	Table = symtab.Table
	// Alphabet is a finite token set Σ.
	Alphabet = symtab.Alphabet
	// Regex is a regular-expression AST over token symbols.
	Regex = rx.Node
	// Language is a regular language canonicalized to a minimal DFA.
	Language = lang.Language
	// Expr is an extraction expression E1⟨p⟩E2.
	Expr = extract.Expr
	// Matcher is a compiled extractor for one expression.
	Matcher = extract.Matcher
	// Decomposition is a pivot factoring of an expression's prefix.
	Decomposition = extract.Decomposition
	// Options bounds automaton construction (state budgets).
	Options = machine.Options
	// Example is a token-level training document with a marked target.
	Example = learn.Example
	// Wrapper is a trained, compiled HTML extractor.
	Wrapper = wrapper.Wrapper
	// Sample is one HTML training page with its marked target.
	Sample = wrapper.Sample
	// Target selects the element of interest in a Sample.
	Target = wrapper.Target
	// Config controls wrapper training.
	Config = wrapper.Config
	// Region is an extraction result on a live page.
	Region = wrapper.Region
	// StreamExtractor extracts from chunked document streams in one
	// forward pass, without materializing the page (Wrapper.Stream).
	StreamExtractor = wrapper.StreamExtractor
	// StreamRegion is a streaming extraction result whose Source bytes
	// borrow a pooled buffer; see StreamExtractor.ExtractReaderTo.
	StreamRegion = wrapper.StreamRegion
	// Perturber generates seeded random page variants under the paper's
	// Section 3 change model, for resilience testing.
	Perturber = perturb.Perturber
	// Tuple is a multi-slot extraction expression E0⟨p1⟩E1…⟨pk⟩Ek.
	Tuple = extract.Tuple
	// TupleExample is a token-level training document with k marked targets.
	TupleExample = learn.TupleExample
	// TupleWrapper extracts a fixed-arity tuple of elements per page.
	TupleWrapper = wrapper.TupleWrapper
	// LabeledPage is a page with its expected extraction, for Evaluate.
	LabeledPage = wrapper.LabeledPage
	// Report aggregates a wrapper evaluation run.
	Report = wrapper.Report
	// Fleet is a registry of named wrappers (one per site) with shared
	// persistence — the operating unit of a multi-vendor shopbot.
	Fleet = wrapper.Fleet
)

// NewFleet returns an empty wrapper fleet.
func NewFleet() *Fleet { return wrapper.NewFleet() }

// LoadFleet restores a fleet persisted with Fleet.MarshalJSON.
func LoadFleet(data []byte, opt Options) (f *Fleet, err error) {
	defer guard(&err)
	return wrapper.LoadFleet(data, opt)
}

// NewPerturber returns a seeded Perturber over the standard HTML snippet
// vocabulary (see internal/perturb).
func NewPerturber(tab *Table, seed int64) *Perturber { return perturb.New(tab, seed) }

// HTMLPerturber applies the Section 3 change model directly to HTML source
// text, tracking the target element's byte span.
type HTMLPerturber = perturb.HTMLPerturber

// NewHTMLPerturber returns a seeded HTML-level perturber.
func NewHTMLPerturber(seed int64) *HTMLPerturber { return perturb.NewHTML(seed) }

// FindTag returns the byte span of the n-th occurrence of a tag in a page,
// for seeding HTMLPerturber.Apply.
var FindTag = perturb.FindTag

// Sentinel errors, re-exported for errors.Is. Together they form the
// library's failure taxonomy (see doc.go): every error returned by the
// facade wraps exactly one of these sentinels, so callers branch with
// errors.Is and never string-match.
var (
	ErrAmbiguous     = extract.ErrAmbiguous
	ErrUnbounded     = extract.ErrUnbounded
	ErrNotApplicable = extract.ErrNotApplicable
	ErrBudget        = machine.ErrBudget
	ErrNotExtracted  = wrapper.ErrNotExtracted

	// ErrNoMatch reports that a wrapper's expression did not parse the
	// page (alias of ErrNotExtracted under the taxonomy's canonical name).
	ErrNoMatch = wrapper.ErrNoMatch
	// ErrBudgetExceeded reports that an automaton construction hit its
	// MaxStates budget (canonical name for ErrBudget).
	ErrBudgetExceeded = machine.ErrBudget
	// ErrDeadlineExceeded reports that a construction or extraction was
	// abandoned because its context expired or was cancelled.
	ErrDeadlineExceeded = machine.ErrDeadline
	// ErrMalformedInput reports undecodable persisted wrappers/fleets.
	ErrMalformedInput = wrapper.ErrMalformedInput
	// ErrUnknownKey reports an ExtractFrom against a site key with no
	// registered wrapper.
	ErrUnknownKey = wrapper.ErrUnknownKey
	// ErrInternal reports a recovered internal invariant failure — the
	// facade's recover() backstop converts panics into errors wrapping it.
	ErrInternal = wrapper.ErrInternal
)

// NewTable returns an empty symbol table.
func NewTable() *Table { return symtab.NewTable() }

// NewAlphabet builds an alphabet from symbols.
func NewAlphabet(syms ...Symbol) Alphabet { return symtab.NewAlphabet(syms...) }

// ParseExpr parses an extraction expression in the concrete syntax, e.g.
// "[^ FORM]* FORM [^ INPUT]* INPUT [^ INPUT]* <INPUT> .*". Σ is the union of
// sigma and every token mentioned.
func ParseExpr(src string, tab *Table, sigma Alphabet, opt Options) (e Expr, err error) {
	defer guard(&err)
	return extract.Parse(src, tab, sigma, opt)
}

// ParseRegex parses a plain regular expression in the same syntax.
func ParseRegex(src string, tab *Table, sigma Alphabet) (*Regex, error) {
	return rx.Parse(src, tab, sigma)
}

// DTD is a parsed document type definition; its Vocabulary feeds
// Config.ExtraTags so wrappers cover a site's whole element vocabulary up
// front — the paper's §8 suggestion of DTD-guided learning.
type DTD = htmltok.DTD

// ParseDTD reads <!ELEMENT …> declarations from DTD source text.
func ParseDTD(src string) (*DTD, error) { return htmltok.ParseDTD(src) }

// PrintRegex renders a regex AST in the concrete syntax.
func PrintRegex(n *Regex, tab *Table) string { return rx.Print(n, tab) }

// ParseTokens parses a whitespace-separated token string (a document).
func ParseTokens(src string, tab *Table) ([]Symbol, error) {
	return rx.ParseWord(src, tab)
}

// ParseLanguage compiles a plain regular expression to a Language.
func ParseLanguage(src string, tab *Table, sigma Alphabet, opt Options) (l Language, err error) {
	defer guard(&err)
	return lang.Parse(src, tab, sigma, opt)
}

// Maximize synthesizes a maximal unambiguous generalization of the
// expression using the paper's algorithms (pivot framework first, then
// left- and right-filtering). See extract.Maximize.
func Maximize(e Expr) (out Expr, err error) {
	defer guard(&err)
	return extract.Maximize(e)
}

// LeftFilter runs Algorithm 6.2 (left-filtering maximization) directly.
func LeftFilter(e Expr) (out Expr, err error) {
	defer guard(&err)
	return extract.LeftFilter(e)
}

// RightFilter runs the mirror image of Algorithm 6.2.
func RightFilter(e Expr) (out Expr, err error) {
	defer guard(&err)
	return extract.RightFilter(e)
}

// Pivot runs the pivot maximization framework (Proposition 6.8).
func Pivot(e Expr) (out Expr, err error) {
	defer guard(&err)
	return extract.Pivot(e)
}

// PivotRight runs the mirror-image pivot framework on the suffix component.
func PivotRight(e Expr) (out Expr, err error) {
	defer guard(&err)
	return extract.PivotRight(e)
}

// PivotDecomposition reports the pivot factoring Pivot would use.
func PivotDecomposition(e Expr) (d Decomposition, err error) {
	defer guard(&err)
	return extract.PivotDecomposition(e)
}

// Compose concatenates two marked expressions per Proposition 6.7,
// preserving maximality and unambiguity.
func Compose(a, b Expr) (out Expr, err error) {
	defer guard(&err)
	return extract.Compose(a, b)
}

// Disambiguate repairs an ambiguous expression into an unambiguous one that
// still extracts every keep word at its original position (the paper's §8
// future-work procedure).
func Disambiguate(e Expr, keep [][]Symbol, maxRounds int) (out Expr, err error) {
	defer guard(&err)
	return extract.Disambiguate(e, keep, maxRounds)
}

// ParseTuple parses a multi-slot extraction expression, e.g.
// "[^ FORM]* FORM <INPUT> [^ /FORM]* <INPUT> .*".
func ParseTuple(src string, tab *Table, sigma Alphabet, opt Options) (t *Tuple, err error) {
	defer guard(&err)
	return extract.ParseTuple(src, tab, sigma, opt)
}

// MaximizeTuple maximizes a tuple expression segment-wise (see
// extract.MaximizeTuple for the exact guarantee).
func MaximizeTuple(t *Tuple) (out *Tuple, err error) {
	defer guard(&err)
	return extract.MaximizeTuple(t)
}

// InduceTuple generalizes tuple examples into an unambiguous tuple
// expression with the per-segment merge heuristic.
func InduceTuple(examples []TupleExample, sigma Alphabet, opt Options) (t *Tuple, err error) {
	defer guard(&err)
	return learn.InduceTuple(examples, sigma, opt)
}

// TrainTuple builds a tuple wrapper from HTML samples whose k target
// elements all carry the data-target attribute.
func TrainTuple(samples []Sample, cfg Config) (w *TupleWrapper, err error) {
	defer guard(&err)
	return wrapper.TrainTuple(samples, cfg)
}

// SimplifyRegex rewrites a regex AST with language-preserving algebraic
// rules, shrinking machine-generated expressions for display.
func SimplifyRegex(n *Regex) *Regex { return rx.Simplify(n) }

// Induce generalizes token-level examples into an unambiguous expression
// with the Section 7 merge heuristic (plus a disambiguation ladder).
func Induce(examples []Example, sigma Alphabet, opt Options) (e Expr, err error) {
	defer guard(&err)
	res, err := learn.Induce(examples, sigma, opt)
	if err != nil {
		return Expr{}, err
	}
	return res.Expr, nil
}

// Train builds a wrapper from marked HTML samples: tokenize → induce →
// maximize → compile.
func Train(samples []Sample, cfg Config) (w *Wrapper, err error) {
	defer guard(&err)
	return wrapper.Train(samples, cfg)
}

// TrainTokens builds a wrapper from token-level examples over tab.
func TrainTokens(tab *Table, examples []Example, sigma Alphabet, cfg Config) (w *Wrapper, err error) {
	defer guard(&err)
	return wrapper.TrainTokens(tab, examples, sigma, cfg)
}

// LoadWrapper restores a wrapper persisted with Wrapper.MarshalJSON; a
// tuple wrapper's JSON is ErrMalformedInput (use LoadTupleWrapper).
func LoadWrapper(data []byte, opt Options) (w *Wrapper, err error) {
	defer guard(&err)
	return wrapper.Load(data, opt)
}

// LoadTupleWrapper restores a tuple wrapper persisted with
// TupleWrapper.MarshalJSON.
func LoadTupleWrapper(data []byte, opt Options) (w *TupleWrapper, err error) {
	defer guard(&err)
	return wrapper.LoadTuple(data, opt)
}

// IsTuplePayload reports whether persisted wrapper JSON holds a tuple
// wrapper; use it to pick between LoadWrapper and LoadTupleWrapper.
func IsTuplePayload(data []byte) bool { return wrapper.IsTuplePayload(data) }

// ExtractWithin runs a wrapper extraction bounded by ctx, with the facade's
// panic backstop: an expired or cancelled context fails fast with an error
// wrapping ErrDeadlineExceeded.
func ExtractWithin(ctx context.Context, w *Wrapper, html string) (r Region, err error) {
	defer guard(&err)
	return w.ExtractContext(ctx, html)
}

// ExtractRecordsWithin enumerates every extraction vector of a tuple
// wrapper over the page — one k-slot record per vector, in document order,
// computed by the one-pass multi-split spanner — bounded by ctx, with the
// facade's panic backstop.
func ExtractRecordsWithin(ctx context.Context, w *TupleWrapper, html string) (records [][]Region, err error) {
	defer guard(&err)
	return w.ExtractAllContext(ctx, html)
}

// RefreshWithin re-trains a wrapper on one more marked sample with the whole
// induce→maximize→compile pipeline bounded by ctx (and by the wrapper's
// state budget). On any error the original wrapper is untouched and usable.
func RefreshWithin(ctx context.Context, w *Wrapper, sample Sample) (fresh *Wrapper, err error) {
	defer guard(&err)
	return w.RefreshContext(ctx, sample)
}

// Target selector constructors.
var (
	// TargetIndex selects a token index in the sample.
	TargetIndex = wrapper.TargetIndex
	// TargetTag selects the n-th occurrence of an upper-case tag name.
	TargetTag = wrapper.TargetTag
	// TargetMarker selects the element carrying the data-target attribute.
	TargetMarker = wrapper.TargetMarker
)
