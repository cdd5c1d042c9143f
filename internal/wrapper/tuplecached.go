package wrapper

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/spanner"
)

// LoadTupleCached is LoadTuple backed by a compiled-artifact cache tier
// stack: the reparse + determinization of the k-ary expression is looked up
// by content address (extract.KeyTuple, domain-separated from single-pivot
// keys) and compiled at most once per distinct expression. The returned
// wrapper shares the cached symbol table and tuple and owns only its
// tokenizer configuration. A nil cache degrades to plain LoadTuple; error
// classification matches it.
func LoadTupleCached(data []byte, opt machine.Options, cache extract.TupleArtifactCache) (*TupleWrapper, error) {
	return LoadTupleCachedCtx(context.Background(), data, opt, cache)
}

// ctxTupleArtifactCache is the optional context-aware tuple load surface
// (extract.TieredCache.LoadTupleCtx).
type ctxTupleArtifactCache interface {
	LoadTupleCtx(ctx context.Context, src string, sigmaNames []string, opt machine.Options) (*extract.CompiledTuple, error)
}

// LoadTupleCachedCtx is LoadTupleCached with the caller's context threaded
// through to the cache, mirroring LoadCachedCtx.
func LoadTupleCachedCtx(ctx context.Context, data []byte, opt machine.Options, cache extract.TupleArtifactCache) (*TupleWrapper, error) {
	if cache == nil {
		return LoadTuple(data, opt)
	}
	var p tuplePersisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: decoding tuple wrapper: %v", ErrMalformedInput, err)
	}
	if p.Version != 1 || p.Kind != "tuple" {
		return nil, fmt.Errorf("%w: not a version-1 tuple wrapper (version %d, kind %q)", ErrMalformedInput, p.Version, p.Kind)
	}
	var comp *extract.CompiledTuple
	var err error
	if cc, ok := cache.(ctxTupleArtifactCache); ok {
		comp, err = cc.LoadTupleCtx(ctx, p.Expr, p.Sigma, opt)
	} else {
		comp, err = cache.LoadTuple(p.Expr, p.Sigma, opt)
	}
	if err != nil {
		if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
			return nil, fmt.Errorf("wrapper: reparsing tuple expression: %w", err)
		}
		return nil, fmt.Errorf("%w: reparsing tuple expression: %v", ErrMalformedInput, err)
	}
	cfg := Config{DropEndTags: p.DropEndTags, KeepText: p.KeepText, AttrKeys: p.AttrKeys, Skip: p.Skip, Options: opt}
	return &TupleWrapper{tab: comp.Tab, mapper: cfg.mapper(comp.Tab), tuple: comp.Tuple, cfg: cfg}, nil
}

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
	doc := w.mapper.Resolve(html)
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

// TupleFleet is a registry of named tuple wrappers — the k-ary counterpart
// of Fleet, with the same concurrency contract: lookups take a read lock,
// Add/Remove the write lock, and wrappers are immutable once built.
type TupleFleet struct {
	mu       sync.RWMutex
	wrappers map[string]*TupleWrapper
}

// NewTupleFleet returns an empty tuple fleet.
func NewTupleFleet() *TupleFleet {
	return &TupleFleet{wrappers: make(map[string]*TupleWrapper)}
}

// Add registers (or replaces) the tuple wrapper for a site key.
func (f *TupleFleet) Add(key string, w *TupleWrapper) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wrappers[key] = w
}

// Get returns the tuple wrapper for the key, or nil.
func (f *TupleFleet) Get(key string) *TupleWrapper {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.wrappers[key]
}

// Remove deletes a site's tuple wrapper.
func (f *TupleFleet) Remove(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.wrappers, key)
}

// Len reports the number of registered tuple wrappers.
func (f *TupleFleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.wrappers)
}

// Keys returns the registered site keys in sorted order.
func (f *TupleFleet) Keys() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.wrappers))
	for k := range f.wrappers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
