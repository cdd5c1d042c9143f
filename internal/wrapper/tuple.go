package wrapper

import (
	"context"
	"encoding/json"
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
	mapper *htmltok.Mapper   // training and refresh: interns into tab
	res    *htmltok.Resolver // live pages, against the tuple's own Σ
	tuple  *extract.Tuple
	cfg    Config

	// Training provenance for Refresh; nil for wrappers restored with
	// LoadTuple.
	examples []learn.TupleExample
	sigma    symtab.Alphabet

	// Lazily compiled multi-split spanner program backing ExtractAll.
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
		tab: tab, mapper: mapper, res: mapper.Resolver(tuple.Sigma()), tuple: tuple, cfg: cfg,
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
		tab: w.tab, mapper: w.mapper, res: w.mapper.Resolver(tuple.Sigma()), tuple: tuple, cfg: w.cfg,
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
	doc := w.res.Resolve(html)
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

// MarshalJSON persists the tuple wrapper; restore with LoadTuple.
func (w *TupleWrapper) MarshalJSON() ([]byte, error) {
	return json.Marshal(persist(kindTuple, w.tuple.String(w.tab), w.tuple.Sigma(), w.tab, w.cfg))
}

// LoadTuple restores a tuple wrapper persisted with MarshalJSON. Undecodable,
// wrong-version and wrong-kind payloads (a single-pivot wrapper's JSON) are
// classified under ErrMalformedInput.
func LoadTuple(data []byte, opt machine.Options) (*TupleWrapper, error) {
	return LoadTupleCachedCtx(context.Background(), data, opt, nil)
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
	return probe.Kind == kindTuple
}

// Tuple exposes the underlying expression.
func (w *TupleWrapper) Tuple() *extract.Tuple { return w.tuple }

// String renders the tuple expression.
func (w *TupleWrapper) String() string { return w.tuple.String(w.tab) }

// program returns the wrapper's compiled multi-split spanner program,
// building it on first use. The program is immutable and shared by every
// subsequent ExtractAll; compile failure is sticky only for this wrapper
// instance.
func (w *TupleWrapper) program() (*spanner.Program, error) {
	w.prog.once.Do(func() {
		w.prog.p, w.prog.err = spanner.Compile(w.tuple, w.cfg.Options)
	})
	return w.prog.p, w.prog.err
}

// ExtractAll runs the tuple wrapper as a document spanner: every extraction
// vector on the page, one []Region per record, in document order. Where
// Extract demands the unique vector (and errors on ambiguity), ExtractAll
// embraces multiplicity — the record workload. A page with no records
// returns an empty slice and no error; budget and deadline exhaustion
// return errors wrapping machine.ErrBudget / machine.ErrDeadline.
func (w *TupleWrapper) ExtractAll(html string) ([][]Region, error) {
	return w.ExtractAllContext(context.Background(), html)
}

// ExtractAllContext is ExtractAll bounded by ctx in addition to the
// wrapper's own training options.
func (w *TupleWrapper) ExtractAllContext(ctx context.Context, html string) ([][]Region, error) {
	prog, err := w.program()
	if err != nil {
		return nil, err
	}
	doc := w.res.Resolve(html)
	m, err := prog.RunContext(ctx, doc.Syms)
	if err != nil {
		return nil, err
	}
	records := [][]Region{}
	for {
		vec, ok, err := m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return records, nil
		}
		rec := make([]Region, len(vec))
		for j, pos := range vec {
			rec[j] = Region{TokenIndex: pos, Span: doc.SpanOf(pos), Source: doc.Source(pos)}
		}
		records = append(records, rec)
	}
}
