package wrapper

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
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
	tab      *symtab.Table
	prog     *spanner.Program // the multi-split program behind every extraction
	sessions sync.Pool        // *tupleSession, tokenizing live pages against the tuple's own Σ
	tuple    *extract.Tuple
	cfg      Config

	// Training provenance for Refresh; nil for wrappers restored with
	// LoadTuple.
	examples []learn.TupleExample
	sigma    symtab.Alphabet
}

// newTupleWrapper assembles a tuple wrapper around its compiled tuple and
// builds what every request shares, once: the spanner program and the pool
// of page sessions, whose token resolver over the tuple's own Σ they all
// share. TrainTuple, Refresh and the loaders all construct through it.
func newTupleWrapper(tab *symtab.Table, tuple *extract.Tuple, cfg Config, examples []learn.TupleExample, sigma symtab.Alphabet) (*TupleWrapper, error) {
	prog, err := spanner.Compile(tuple, cfg.Options)
	if err != nil {
		return nil, err
	}
	w := &TupleWrapper{tab: tab, tuple: tuple, cfg: cfg, prog: prog, examples: examples, sigma: sigma}
	res := cfg.mapper(tab).Resolver(tuple.Sigma())
	w.sessions.New = func() any {
		s := &tupleSession{res: res, rec: make([]StreamRegion, prog.Arity())}
		s.st = res.Streamer(s.onToken)
		return s
	}
	return w, nil
}

// tupleSession is one extraction's pooled state: a streamer feeding the
// wrapper's resolver, the symbols and spans of the tokens it keeps, and the
// k-slot record ExtractAllTo lends each callback. Every buffer is reused
// across extractions.
type tupleSession struct {
	st    *htmltok.Streamer
	res   *htmltok.Resolver
	syms  []symtab.Symbol
	spans []htmltok.Span
	rec   []StreamRegion
}

func (s *tupleSession) onToken(rt *htmltok.RawToken) {
	if sym, ok := s.res.Sym(rt); ok {
		s.syms = append(s.syms, sym)
		s.spans = append(s.spans, htmltok.Span{Start: rt.Start, End: rt.End})
	}
}

// session takes a session from the pool and tokenizes page into it; the
// caller puts it back. Tokenizing resets whatever an earlier extraction,
// failed or panicked, left behind.
func (w *TupleWrapper) session(page []byte) *tupleSession {
	s := w.sessions.Get().(*tupleSession)
	s.syms, s.spans = s.syms[:0], s.spans[:0]
	s.st.Reset()
	s.st.Feed(page)
	s.st.Close()
	return s
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
	return newTupleWrapper(tab, tuple, cfg, examples, sigma)
}

// Refresh re-induces the tuple wrapper with one more marked sample (every
// data-target in document order is one slot), the tuple analogue of
// Wrapper.Refresh, and like it leaves the receiver's symbol table alone.
// Wrappers restored with LoadTuple have no training provenance and cannot
// be refreshed.
func (w *TupleWrapper) Refresh(sample Sample) (*TupleWrapper, error) {
	if w.examples == nil {
		return nil, fmt.Errorf("wrapper: tuple wrapper has no training provenance (restored from JSON); retrain instead")
	}
	mapper, tab := w.cfg.privateMapper(w.tab)
	doc := mapper.Map(sample.HTML)
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
	return newTupleWrapper(tab, tuple, w.cfg, examples, sigma)
}

// markedIndices returns the token indices of every data-target-marked tag,
// in document order. Every marked tag must survive the tokenizer config.
func markedIndices(doc htmltok.Document, html string) ([]int, error) {
	marks := markerIndices(doc, html)
	switch {
	case len(marks) == 0:
		return nil, errNoMarker
	case slices.Contains(marks, -1):
		return nil, errMarkerDropped
	}
	return marks, nil
}

// Extract runs the tuple wrapper on a page that holds one record, returning
// one region per slot: ErrNotExtracted when the page holds no record, an
// error wrapping extract.ErrAmbiguous when it holds a second (ExtractAll
// enumerates them all).
func (w *TupleWrapper) Extract(html string) ([]Region, error) {
	s := w.session([]byte(html))
	defer w.sessions.Put(s)
	vector, err := w.unique(s.syms)
	if err != nil {
		return nil, err
	}
	out := make([]Region, len(vector))
	for j, pos := range vector {
		sp := s.spans[pos]
		out[j] = Region{TokenIndex: pos, Span: sp, Source: html[sp.Start:sp.End]}
	}
	return out, nil
}

// unique runs the wrapper's spanner program over a page's symbols and
// returns the page's only extraction vector: ErrNotExtracted when there is
// none, an error wrapping extract.ErrAmbiguous when there is a second.
func (w *TupleWrapper) unique(word []symtab.Symbol) ([]int, error) {
	// Not Run: the program keeps the options it was compiled under, whose
	// context (a load deadline) may have ended since.
	m, err := w.prog.RunContext(context.Background(), word)
	if err != nil {
		return nil, err
	}
	first, ok, err := m.Next()
	switch {
	case err != nil:
		return nil, err
	case !ok:
		return nil, ErrNotExtracted
	}
	// The cursor lends its vectors until the next Next, which may release
	// them, so keep a copy of the first.
	first = slices.Clone(first)
	second, ok, err := m.Next()
	switch {
	case err != nil:
		return nil, err
	case ok:
		return nil, fmt.Errorf("%w: the tuple fits the page as %v and as %v", extract.ErrAmbiguous, first, second)
	}
	return first, nil
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
	records := [][]Region{}
	err := w.ExtractAllTo(ctx, []byte(html), func(rec []StreamRegion) error {
		out := make([]Region, len(rec))
		for j, r := range rec {
			out[j] = Region{TokenIndex: r.TokenIndex, Span: r.Span, Source: html[r.Span.Start:r.Span.End]}
		}
		records = append(records, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return records, nil
}

// ExtractAllTo is ExtractAllContext handing each record to fn as the
// spanner's cursor yields it, in document order, instead of collecting
// them: the record twin of StreamExtractor.ExtractReaderTo. rec and its
// Source bytes are borrowed from a pooled session and from page, and are
// valid only during fn. An error from fn stops the enumeration and is
// returned as is. The page is tokenized once into pooled arrays and each
// record is read off the spanner's borrowed vector, so a warm call
// allocates a constant, whatever the number of records.
func (w *TupleWrapper) ExtractAllTo(ctx context.Context, page []byte, fn func(rec []StreamRegion) error) error {
	s := w.session(page)
	defer w.sessions.Put(s)
	m, err := w.prog.RunContext(ctx, s.syms)
	if err != nil {
		return err
	}
	for {
		vec, ok, err := m.Next()
		if err != nil || !ok {
			return err
		}
		for j, pos := range vec {
			sp := s.spans[pos]
			s.rec[j] = StreamRegion{TokenIndex: pos, Span: sp, Source: page[sp.Start:sp.End]}
		}
		if err := fn(s.rec); err != nil {
			return err
		}
	}
}
