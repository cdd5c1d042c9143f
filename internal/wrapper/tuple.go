package wrapper

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/learn"
	"resilex/internal/machine"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
)

// TupleWrapper extracts a fixed-arity tuple of elements from each page —
// e.g. (product name cell, price cell) — using a multi-mark extraction
// expression. Train with TrainTuple on samples whose k target elements all
// carry the data-target attribute (document order defines slot order).
type TupleWrapper struct {
	tab    *symtab.Table
	mapper *htmltok.Mapper
	tuple  *extract.Tuple
	cfg    Config

	// Training provenance for Refresh; nil for wrappers restored with
	// LoadTuple.
	examples []learn.TupleExample
	sigma    symtab.Alphabet

	// Lazily compiled multi-split spanner program backing ExtractAll; see
	// tuplecached.go.
	prog struct {
		once sync.Once
		p    *spanner.Program
		err  error
	}
}

// TrainTuple builds a tuple wrapper from marked samples. Every sample must
// mark the same number of elements with data-target, and the marked tags
// must agree slot-by-slot across samples.
func TrainTuple(samples []Sample, cfg Config) (*TupleWrapper, error) {
	if len(samples) == 0 {
		return nil, learn.ErrNoExamples
	}
	tab := symtab.NewTable()
	mapper := cfg.mapper(tab)
	var examples []learn.TupleExample
	var sigma symtab.Alphabet
	for i, s := range samples {
		doc := mapper.Map(s.HTML)
		targets, err := markedIndices(doc, s.HTML)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		examples = append(examples, learn.TupleExample{Doc: doc.Syms, Targets: targets})
		sigma = sigma.Union(doc.Alphabet())
	}
	for _, t := range cfg.ExtraTags {
		sigma = sigma.With(tab.Intern(t))
	}
	tuple, err := learn.InduceTuple(examples, sigma, cfg.Options)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipMaximize {
		if maxed, err := extract.MaximizeTuple(tuple); err == nil {
			tuple = maxed
		}
		// Maximization failure keeps the induced tuple: correct on the
		// training distribution, merely less resilient.
	}
	return &TupleWrapper{
		tab: tab, mapper: mapper, tuple: tuple, cfg: cfg,
		examples: examples, sigma: sigma,
	}, nil
}

// Refresh re-induces the tuple wrapper with one more marked sample (every
// data-target in document order is one slot), the tuple analogue of
// Wrapper.Refresh. Wrappers restored with LoadTuple have no training
// provenance and cannot be refreshed.
func (w *TupleWrapper) Refresh(sample Sample) (*TupleWrapper, error) {
	if w.examples == nil {
		return nil, fmt.Errorf("wrapper: tuple wrapper has no training provenance (restored from JSON); retrain instead")
	}
	doc := w.mapper.Map(sample.HTML)
	targets, err := markedIndices(doc, sample.HTML)
	if err != nil {
		return nil, err
	}
	examples := append(append([]learn.TupleExample(nil), w.examples...),
		learn.TupleExample{Doc: doc.Syms, Targets: targets})
	sigma := w.sigma.Union(doc.Alphabet())
	tuple, err := learn.InduceTuple(examples, sigma, w.cfg.Options)
	if err != nil {
		return nil, err
	}
	if !w.cfg.SkipMaximize {
		if maxed, err := extract.MaximizeTuple(tuple); err == nil {
			tuple = maxed
		}
	}
	return &TupleWrapper{
		tab: w.tab, mapper: w.mapper, tuple: tuple, cfg: w.cfg,
		examples: examples, sigma: sigma,
	}, nil
}

// markedIndices returns the token indices of every data-target-marked tag,
// in document order.
func markedIndices(doc htmltok.Document, html string) ([]int, error) {
	var out []int
	for _, raw := range htmltok.Scan(html) {
		if _, ok := raw.Attr(MarkerAttr); !ok {
			continue
		}
		found := -1
		for i, span := range doc.Spans {
			if span.Start == raw.Start && span.End == raw.End {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: marked tag was filtered out by the tokenizer config", ErrNoTarget)
		}
		out = append(out, found)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no tag carries %s", ErrNoTarget, MarkerAttr)
	}
	return out, nil
}

// Extract runs the tuple wrapper on a page, returning one region per slot.
func (w *TupleWrapper) Extract(html string) ([]Region, error) {
	doc := w.mapper.Resolve(html)
	vector, ok, err := w.tuple.Extract(doc.Syms)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotExtracted
	}
	out := make([]Region, len(vector))
	for j, pos := range vector {
		out[j] = Region{TokenIndex: pos, Span: doc.SpanOf(pos), Source: doc.Source(pos)}
	}
	return out, nil
}

// Arity returns the number of extracted slots.
func (w *TupleWrapper) Arity() int { return w.tuple.Arity() }

// tuplePersisted is the JSON schema of a saved tuple wrapper.
type tuplePersisted struct {
	Version     int      `json:"version"`
	Kind        string   `json:"kind"` // always "tuple"
	Expr        string   `json:"expr"`
	Sigma       []string `json:"sigma"`
	DropEndTags bool     `json:"dropEndTags,omitempty"`
	KeepText    bool     `json:"keepText,omitempty"`
	AttrKeys    []string `json:"attrKeys,omitempty"`
	Skip        []string `json:"skip,omitempty"`
}

// MarshalJSON persists the tuple wrapper; restore with LoadTuple.
func (w *TupleWrapper) MarshalJSON() ([]byte, error) {
	names := make([]string, 0, w.tuple.Sigma().Len())
	for _, s := range w.tuple.Sigma().Symbols() {
		names = append(names, w.tab.Name(s))
	}
	return json.Marshal(tuplePersisted{
		Version:     1,
		Kind:        "tuple",
		Expr:        w.tuple.String(w.tab),
		Sigma:       names,
		DropEndTags: w.cfg.DropEndTags,
		KeepText:    w.cfg.KeepText,
		AttrKeys:    w.cfg.AttrKeys,
		Skip:        w.cfg.Skip,
	})
}

// LoadTuple restores a tuple wrapper persisted with MarshalJSON.
func LoadTuple(data []byte, opt machine.Options) (*TupleWrapper, error) {
	var p tuplePersisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: decoding tuple wrapper: %v", ErrMalformedInput, err)
	}
	if p.Version != 1 || p.Kind != "tuple" {
		return nil, fmt.Errorf("%w: not a version-1 tuple wrapper (version %d, kind %q)", ErrMalformedInput, p.Version, p.Kind)
	}
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll(p.Sigma...)...)
	tuple, err := extract.ParseTuple(p.Expr, tab, sigma, opt)
	if err != nil {
		// Exhaustion during reparse is the caller's budget/deadline, not a
		// corrupt payload — keep those sentinels detectable.
		if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
			return nil, fmt.Errorf("wrapper: reparsing tuple expression: %w", err)
		}
		return nil, fmt.Errorf("%w: reparsing tuple expression: %v", ErrMalformedInput, err)
	}
	cfg := Config{DropEndTags: p.DropEndTags, KeepText: p.KeepText, AttrKeys: p.AttrKeys, Skip: p.Skip, Options: opt}
	return &TupleWrapper{tab: tab, mapper: cfg.mapper(tab), tuple: tuple, cfg: cfg}, nil
}

// IsTuplePayload reports whether the persisted wrapper JSON is a tuple
// wrapper (kind == "tuple"); used by tools that accept either form.
func IsTuplePayload(data []byte) bool {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Kind == "tuple"
}

// Tuple exposes the underlying expression.
func (w *TupleWrapper) Tuple() *extract.Tuple { return w.tuple }

// String renders the tuple expression.
func (w *TupleWrapper) String() string { return w.tuple.String(w.tab) }
