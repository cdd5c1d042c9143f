// Package wrapper assembles the full resilient-extraction pipeline of the
// paper: tokenize sample HTML pages (internal/htmltok), induce an initial
// unambiguous extraction expression from the marked examples
// (internal/learn), maximize it for resilience (internal/extract, Section
// 6), and compile a matcher that maps extraction results back to byte
// regions of the live page.
//
// TupleWrapper is the k-ary counterpart of the single-pivot Wrapper: it
// extracts a fixed-arity tuple of elements, or every such record on a page
// (ExtractAll).
//
// Around the trained wrappers sit the operational layers: Fleet keys one
// wrapper of either kind by site and extracts in parallel batches on a
// worker pool (ExtractBatch, deterministic result ordering, single-pivot
// entries only); every loader — Load, LoadTuple, their Cached variants,
// LoadAny and the fleet loaders — goes through one envelope decoder and,
// given an extract.TieredCache, restores through the shared artifact cache
// so identical expressions compile once per process; and Refresh re-induces
// a wrapper from one more marked sample when a redesign outruns its
// expression (Section 7), for Fleet.Add to swap in. The server heals the
// same way, gated on traffic: internal/refresh watches for drift, canaries
// the re-induced wrapper and promotes or rolls it back.
package wrapper

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/learn"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// MarkerAttr is the HTML attribute wrapgen-style training samples use to
// mark the target element: <input data-target ...>.
const MarkerAttr = "data-target"

// Target selects the element of interest in a training sample.
type Target struct {
	// ByIndex selects a token index directly when >= 0. Takes precedence.
	ByIndex int
	// Tag and Occurrence select the n-th (0-based) occurrence of the named
	// tag's symbol when ByIndex < 0. Tag must be the upper-case name.
	Tag        string
	Occurrence int
	// ByMarker selects the tag carrying the data-target attribute.
	ByMarker bool
}

// TargetIndex returns Target selecting a token index.
func TargetIndex(i int) Target { return Target{ByIndex: i} }

// TargetTag returns a Target selecting the n-th occurrence of tag.
func TargetTag(tag string, n int) Target { return Target{ByIndex: -1, Tag: tag, Occurrence: n} }

// TargetMarker returns a Target selecting the data-target-marked element.
func TargetMarker() Target { return Target{ByIndex: -1, ByMarker: true} }

// Sample is one training page with its marked target.
type Sample struct {
	HTML   string
	Target Target
}

// Config controls training.
type Config struct {
	// KeepEndTags, KeepText, AttrKeys and Skip configure the tokenizer; see
	// htmltok.Mapper. End tags are kept by default.
	DropEndTags bool
	KeepText    bool
	AttrKeys    []string
	Skip        []string
	// ExtraTags extends Σ with tags not present in any sample, so later
	// pages using them stay within the wrapper's alphabet.
	ExtraTags []string
	// SkipMaximize trains a merged-but-unmaximized wrapper (used by the
	// resilience ablation).
	SkipMaximize bool
	// Options bounds automaton construction; the zero value uses the
	// default budget.
	Options machine.Options
}

// Wrapper is a trained, compiled extractor. Create with Train or Load.
type Wrapper struct {
	tab *symtab.Table
	// res resolves live pages against the expression's own Σ; every
	// extraction route shares it, with no lock.
	res      *htmltok.Resolver
	expr     extract.Expr
	matcher  *extract.Matcher
	se       *StreamExtractor // the stream route's engine, built with the wrapper
	strategy string
	cfg      Config

	// Training provenance, kept so Refresh can re-induce; nil for wrappers
	// restored with Load.
	examples []learn.Example
	sigma    symtab.Alphabet
}

// Region is an extraction result on a live page.
type Region struct {
	TokenIndex int
	Span       htmltok.Span
	Source     string // the page text of the extracted element
}

// Errors.
var (
	ErrNoTarget     = errors.New("wrapper: target not found in sample")
	ErrNotExtracted = errors.New("wrapper: expression does not parse the page")
)

func (c Config) mapper(tab *symtab.Table) *htmltok.Mapper {
	m := htmltok.NewMapper(tab)
	m.KeepEndTags = !c.DropEndTags
	m.KeepText = c.KeepText
	m.AttrKeys = c.AttrKeys
	if len(c.Skip) > 0 {
		m.Skip = map[string]bool{}
		for _, s := range c.Skip {
			m.Skip[s] = true
		}
	}
	return m
}

// privateMapper returns a tokenizer over a clone of tab, and the clone.
// Evaluate and Refresh tokenize pages with it, so the names a page adds are
// interned into the clone, never into tab, which every wrapper loaded from
// one cached artifact shares. The clone keeps tab's ids. A name a page adds
// is outside Σ but still gets an id, so a label on it resolves.
func (c Config) privateMapper(tab *symtab.Table) (*htmltok.Mapper, *symtab.Table) {
	clone := tab.Clone()
	return c.mapper(clone), clone
}

// Train builds a wrapper from marked samples: tokenize → induce → maximize
// → compile. The returned wrapper records which induction strategy and
// maximization path were used (see Strategy).
func Train(samples []Sample, cfg Config) (*Wrapper, error) {
	if len(samples) == 0 {
		return nil, learn.ErrNoExamples
	}
	tab := symtab.NewTable()
	mapper := cfg.mapper(tab)
	var examples []learn.Example
	var sigma symtab.Alphabet
	for i, s := range samples {
		doc := mapper.Map(s.HTML)
		idx, err := resolveTarget(doc, s, tab)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		examples = append(examples, learn.Example{Doc: doc.Syms, Target: idx})
		sigma = sigma.Union(doc.Alphabet())
	}
	for _, t := range cfg.ExtraTags {
		sigma = sigma.With(tab.Intern(t))
	}
	return trainExamples(tab, examples, sigma, cfg)
}

// TrainTokens builds a wrapper directly from token-level examples sharing
// the given symbol table; used by the synthetic-workload experiments.
func TrainTokens(tab *symtab.Table, examples []learn.Example, sigma symtab.Alphabet, cfg Config) (*Wrapper, error) {
	return trainExamples(tab, examples, sigma, cfg)
}

func trainExamples(tab *symtab.Table, examples []learn.Example, sigma symtab.Alphabet, cfg Config) (*Wrapper, error) {
	res, err := learn.Induce(examples, sigma, cfg.Options)
	if err != nil {
		return nil, err
	}
	expr := res.Expr
	strategy := res.Strategy
	if !cfg.SkipMaximize {
		maxed, err := extract.Maximize(expr)
		switch {
		case err == nil:
			expr = maxed
			strategy += "+maximized"
		case errors.Is(err, extract.ErrNotApplicable) || errors.Is(err, extract.ErrUnbounded):
			// Keep the unmaximized induced expression; it is still correct
			// on the training distribution, only less resilient.
			strategy += "+unmaximized"
		default:
			return nil, err
		}
	}
	m, err := expr.Compile()
	if err != nil {
		return nil, err
	}
	return newWrapper(tab, expr, m, strategy, cfg, examples, sigma)
}

// newWrapper assembles a single-pivot wrapper around its compiled
// expression and builds what every request shares, once: the resolver over
// the expression's own Σ and the stream extractor, with its one-pass
// matcher and its pool of page sessions. Training, both Refresh paths and
// the loaders all construct through it, as tuple wrappers do through
// newTupleWrapper.
func newWrapper(tab *symtab.Table, expr extract.Expr, m *extract.Matcher, strategy string, cfg Config, examples []learn.Example, sigma symtab.Alphabet) (*Wrapper, error) {
	res := cfg.mapper(tab).Resolver(expr.Sigma())
	se, err := newStreamExtractor(expr, res)
	if err != nil {
		return nil, err
	}
	return &Wrapper{
		tab: tab, res: res, expr: expr, matcher: m, se: se,
		strategy: strategy, cfg: cfg,
		examples: examples, sigma: sigma,
	}, nil
}

func resolveTarget(doc htmltok.Document, s Sample, tab *symtab.Table) (int, error) {
	t := s.Target
	if t.ByIndex >= 0 {
		if t.ByIndex >= len(doc.Syms) {
			return 0, fmt.Errorf("%w: index %d out of %d tokens", ErrNoTarget, t.ByIndex, len(doc.Syms))
		}
		return t.ByIndex, nil
	}
	if t.ByMarker {
		// The first marked tag is the target.
		marks := markerIndices(doc, s.HTML)
		switch {
		case len(marks) == 0:
			return 0, errNoMarker
		case marks[0] < 0:
			return 0, errMarkerDropped
		}
		return marks[0], nil
	}
	sym := tab.Lookup(t.Tag)
	if sym == symtab.None {
		return 0, fmt.Errorf("%w: tag %s never occurs", ErrNoTarget, t.Tag)
	}
	idx := doc.Find(sym, t.Occurrence)
	if idx < 0 {
		return 0, fmt.Errorf("%w: occurrence %d of %s not present", ErrNoTarget, t.Occurrence, t.Tag)
	}
	return idx, nil
}

// Marker-lookup errors of training samples.
var (
	errNoMarker      = fmt.Errorf("%w: no tag carries %s", ErrNoTarget, MarkerAttr)
	errMarkerDropped = fmt.Errorf("%w: marked tag was filtered out by the tokenizer config", ErrNoTarget)
)

// markerIndices returns, in document order, the token index in doc of
// every tag of html that carries MarkerAttr, or −1 for a marked tag the
// tokenizer config dropped from doc.
func markerIndices(doc htmltok.Document, html string) []int {
	var out []int
	for _, raw := range htmltok.Scan(html) {
		if _, ok := raw.Attr(MarkerAttr); ok {
			out = append(out, slices.Index(doc.Spans, htmltok.Span{Start: raw.Start, End: raw.End}))
		}
	}
	return out
}

// Extract runs the wrapper on a live page and returns the extracted region.
func (w *Wrapper) Extract(html string) (Region, error) {
	return w.ExtractContext(context.Background(), html)
}

// ExtractContext is Extract bounded by ctx: an expired or cancelled context
// fails fast with an error wrapping machine.ErrDeadline before any
// tokenization or matching work is done. Tokenization and matching are
// linear in the page, so the entry check bounds the whole call. The page is
// tokenized by the stream route's htmltok.Streamer and resolved by the
// wrapper's htmltok.Resolver, frozen over its Σ: names are never interned,
// so live pages do not grow the symbol table, which wrappers loaded from one
// cached artifact share.
func (w *Wrapper) ExtractContext(ctx context.Context, html string) (Region, error) {
	if err := (machine.Options{Ctx: ctx}).Err(); err != nil {
		return Region{}, fmt.Errorf("wrapper: extract: %w", err)
	}
	doc := w.res.Resolve(html)
	pos, ok := w.matcher.Find(doc.Syms)
	if !ok {
		return Region{}, ErrNotExtracted
	}
	return Region{TokenIndex: pos, Span: doc.SpanOf(pos), Source: doc.Source(pos)}, nil
}

// WithOptions returns a copy of the wrapper whose subsequent Refresh and
// construction work runs under opt (budget and/or deadline). The compiled
// matcher is shared; extraction behavior is unchanged. The fault-injection
// harness uses this to starve a single refresh without rebuilding wrappers.
func (w *Wrapper) WithOptions(opt machine.Options) *Wrapper {
	c := *w
	c.cfg.Options = opt
	return &c
}

// ExtractTokens runs the wrapper on a pre-tokenized document.
func (w *Wrapper) ExtractTokens(doc []symtab.Symbol) (int, bool) {
	return w.matcher.Find(doc)
}

// Expr returns the wrapper's extraction expression.
func (w *Wrapper) Expr() extract.Expr { return w.expr }

// Table returns the wrapper's symbol table.
func (w *Wrapper) Table() *symtab.Table { return w.tab }

// Strategy describes how the wrapper was obtained, e.g.
// "merge-prefixes+maximized".
func (w *Wrapper) Strategy() string { return w.strategy }

// String renders the underlying extraction expression.
func (w *Wrapper) String() string { return w.expr.String(w.tab) }

// kindTuple is the envelope kind of a persisted k-ary tuple wrapper;
// single-pivot payloads carry no kind.
const kindTuple = "tuple"

// persisted is the JSON envelope of a saved wrapper of either kind. Only
// single-pivot wrappers record a Strategy; it is a pointer so a tuple
// wrapper's JSON omits the field while a single-pivot one always has it.
type persisted struct {
	Version     int      `json:"version"`
	Kind        string   `json:"kind,omitempty"`
	Expr        string   `json:"expr"`
	Sigma       []string `json:"sigma"`
	Strategy    *string  `json:"strategy,omitempty"`
	DropEndTags bool     `json:"dropEndTags,omitempty"`
	KeepText    bool     `json:"keepText,omitempty"`
	AttrKeys    []string `json:"attrKeys,omitempty"`
	Skip        []string `json:"skip,omitempty"`
}

// persist builds the envelope of a wrapper of the given kind from its
// expression, alphabet and tokenizer configuration.
func persist(kind, expr string, sigma symtab.Alphabet, tab *symtab.Table, cfg Config) persisted {
	names := make([]string, 0, sigma.Len())
	for _, s := range sigma.Symbols() {
		names = append(names, tab.Name(s))
	}
	return persisted{
		Version: 1, Kind: kind, Expr: expr, Sigma: names,
		DropEndTags: cfg.DropEndTags, KeepText: cfg.KeepText, AttrKeys: cfg.AttrKeys, Skip: cfg.Skip,
	}
}

// decodePersisted is the one envelope decoder behind every loader: it
// parses the JSON and checks the version and that the payload's kind is one
// of kinds. Every failure is ErrMalformedInput.
func decodePersisted(data []byte, kinds ...string) (persisted, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("%w: decoding wrapper: %v", ErrMalformedInput, err)
	}
	if p.Version != 1 {
		return p, fmt.Errorf("%w: unsupported wrapper version %d", ErrMalformedInput, p.Version)
	}
	if !slices.Contains(kinds, p.Kind) {
		return p, fmt.Errorf("%w: wrong wrapper kind %q (single-pivot payloads carry no kind, tuple payloads kind %q)",
			ErrMalformedInput, p.Kind, kindTuple)
	}
	return p, nil
}

// config is the tokenizer configuration the envelope records, bound to opt.
func (p persisted) config(opt machine.Options) Config {
	return Config{DropEndTags: p.DropEndTags, KeepText: p.KeepText, AttrKeys: p.AttrKeys, Skip: p.Skip, Options: opt}
}

// reparseError classifies a failed restore compile: budget and deadline
// exhaustion are the caller's limits, not a corrupt payload, so they keep
// their sentinels; everything else is ErrMalformedInput.
func reparseError(err error) error {
	if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
		return fmt.Errorf("wrapper: reparsing expression: %w", err)
	}
	return fmt.Errorf("%w: reparsing expression: %v", ErrMalformedInput, err)
}

// MarshalJSON persists the wrapper: the expression in concrete syntax plus
// the alphabet and tokenizer configuration.
func (w *Wrapper) MarshalJSON() ([]byte, error) {
	p := persist("", w.expr.String(w.tab), w.expr.Sigma(), w.tab, w.cfg)
	p.Strategy = &w.strategy
	return json.Marshal(p)
}

// Load restores a wrapper persisted with MarshalJSON. Undecodable,
// wrong-version and wrong-kind payloads (a tuple wrapper's JSON) are
// classified under ErrMalformedInput.
func Load(data []byte, opt machine.Options) (*Wrapper, error) {
	return LoadCachedCtx(context.Background(), data, opt, nil)
}
