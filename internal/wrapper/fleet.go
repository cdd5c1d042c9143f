package wrapper

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"resilex/internal/extract"
	"resilex/internal/machine"
)

// Any is a wrapper of either kind: a single-pivot *Wrapper or a k-ary
// *TupleWrapper. A Fleet holds one Any per key; LoadAny restores one from
// persisted JSON of either kind.
type Any interface {
	json.Marshaler
}

// Fleet is a registry of named wrappers — one per site — with shared
// persistence: the operating unit of a shopbot that harvests many vendors.
// A Fleet maps a site key (e.g. the vendor's hostname) to one trained
// wrapper of either kind; ExtractFrom dispatches by key. Tuple wrappers are
// held, persisted and listed like single-pivot ones, but ExtractFrom and
// ExtractBatch see only single-pivot entries (a tuple key is unknown
// there); GetTuple reaches them.
//
// A Fleet is safe for concurrent use: lookups and extractions take a read
// lock, Add/Remove take the write lock. Wrappers themselves are immutable
// once trained, so extraction never blocks extraction.
type Fleet struct {
	mu       sync.RWMutex
	wrappers map[string]Any
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{wrappers: make(map[string]Any)}
}

// Add registers the single-pivot wrapper for a site key, replacing whatever
// the key held.
func (f *Fleet) Add(key string, w *Wrapper) { f.Set(key, w) }

// AddTuple registers the tuple wrapper for a site key, replacing whatever
// the key held.
func (f *Fleet) AddTuple(key string, w *TupleWrapper) { f.Set(key, w) }

// Set registers a wrapper of either kind for a site key, replacing whatever
// the key held.
func (f *Fleet) Set(key string, w Any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wrappers[key] = w
}

// Lookup returns the key's wrapper of either kind, or nil.
func (f *Fleet) Lookup(key string) Any {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.wrappers[key]
}

// Get returns the key's single-pivot wrapper, or nil when the key is
// unregistered or holds a tuple wrapper.
func (f *Fleet) Get(key string) *Wrapper {
	w, _ := f.Lookup(key).(*Wrapper)
	return w
}

// GetTuple returns the key's tuple wrapper, or nil when the key is
// unregistered or holds a single-pivot wrapper.
func (f *Fleet) GetTuple(key string) *TupleWrapper {
	w, _ := f.Lookup(key).(*TupleWrapper)
	return w
}

// Remove deletes a site's wrapper, whatever its kind.
func (f *Fleet) Remove(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.wrappers, key)
}

// Len reports the number of registered wrappers.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.wrappers)
}

// Keys returns the registered site keys in sorted order.
func (f *Fleet) Keys() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.wrappers))
	for k := range f.wrappers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExtractFrom runs the named site's wrapper on the page. Unregistered keys
// fail with an error wrapping ErrUnknownKey.
func (f *Fleet) ExtractFrom(key, html string) (Region, error) {
	return f.ExtractFromContext(context.Background(), key, html)
}

// ExtractFromContext is ExtractFrom bounded by ctx.
func (f *Fleet) ExtractFromContext(ctx context.Context, key, html string) (Region, error) {
	w := f.Get(key)
	if w == nil {
		return Region{}, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	return w.ExtractContext(ctx, html)
}

// fleetPersisted is the JSON schema of a saved fleet.
type fleetPersisted struct {
	Version  int                        `json:"version"`
	Kind     string                     `json:"kind"` // "fleet"
	Wrappers map[string]json.RawMessage `json:"wrappers"`
}

// MarshalJSON persists every wrapper in the fleet, either kind.
func (f *Fleet) MarshalJSON() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := fleetPersisted{Version: 1, Kind: "fleet", Wrappers: map[string]json.RawMessage{}}
	for key, w := range f.wrappers {
		data, err := w.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("wrapper: fleet entry %q: %w", key, err)
		}
		out.Wrappers[key] = data
	}
	return json.Marshal(out)
}

// LoadFleet restores a fleet persisted with MarshalJSON, each entry as its
// own kind. Undecodable payloads are classified under ErrMalformedInput.
func LoadFleet(data []byte, opt machine.Options) (*Fleet, error) {
	return LoadFleetCached(data, opt, nil)
}

// LoadFleetCached is LoadFleet with every member restored through the
// compiled-artifact cache (see LoadAny), so fleets that share expressions
// across sites — or fleets reloaded on every deploy — compile each distinct
// expression once. Members load in parallel (LoadAll); when several fail,
// the error names the first failing key in sorted order.
func LoadFleetCached(data []byte, opt machine.Options, cache *extract.TieredCache) (*Fleet, error) {
	var p fleetPersisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: decoding fleet: %v", ErrMalformedInput, err)
	}
	if p.Version != 1 || p.Kind != "fleet" {
		return nil, fmt.Errorf("%w: not a version-1 fleet (version %d, kind %q)", ErrMalformedInput, p.Version, p.Kind)
	}
	keys := make([]string, 0, len(p.Wrappers))
	for key := range p.Wrappers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ws, errs := LoadAll(context.Background(), len(keys), func(i int) []byte { return p.Wrappers[keys[i]] }, opt, cache)
	f := NewFleet()
	for i, key := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("wrapper: fleet entry %q: %w", key, errs[i])
		}
		f.Set(key, ws[i])
	}
	return f, nil
}
