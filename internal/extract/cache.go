package extract

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// Compiled is a cache entry: everything a serving path needs to run one
// persisted expression — the symbol table the artifact was compiled against
// (concurrency-safe, shared by every borrower), the parsed expression, and
// its compiled matcher. Src and SigmaNames record the persisted form the
// artifact was compiled from; EncodeArtifact embeds them so a decoded
// artifact can re-derive its content address and its ASTs without
// re-determinizing anything. Compiled values are immutable after
// construction and safe for concurrent use.
type Compiled struct {
	Tab        *symtab.Table
	Expr       Expr
	Matcher    *Matcher
	Src        string
	SigmaNames []string
}

// Key returns the content address of a persisted expression: a hex SHA-256
// over the alphabet fingerprint (sorted symbol names) and the canonical
// fingerprints of both component ASTs (union operands sorted, symbol ids
// assigned deterministically from the sorted name set). Two persisted
// wrappers that differ only in union operand order, alphabet listing order,
// or the symbol tables they were written from therefore share one key — and
// one compilation.
func Key(src string, sigmaNames []string) (string, error) {
	names, tab, sigma := canonicalSigma(sigmaNames)
	m, err := rx.ParseMarked(src, tab, sigma)
	if err != nil {
		return "", fmt.Errorf("extract: cache key: %w", err)
	}
	sum := sha256.Sum256([]byte("v1|sigma=" + strings.Join(names, ",") + "|p=" + tab.Name(m.P) +
		"|left=" + rx.Fingerprint(m.Left) + "|right=" + rx.Fingerprint(m.Right)))
	return hex.EncodeToString(sum[:]), nil
}

// canonicalSigma sorts and deduplicates the alphabet names and interns them
// into a fresh table: symbol ids — and with them rx.Fingerprint — become a
// pure function of the name set, which is what makes Key and KeyTuple
// content addresses.
func canonicalSigma(sigmaNames []string) ([]string, *symtab.Table, symtab.Alphabet) {
	names := slices.Clone(sigmaNames)
	slices.Sort(names)
	names = slices.Compact(names)
	tab := symtab.NewTable()
	return names, tab, symtab.NewAlphabet(tab.InternAll(names...)...)
}

// CacheStats is a point-in-time view of cache effectiveness. HitRate is in
// [0,1]; it reads 0 before the first lookup.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is the memory tier of the compiled-artifact cache: a
// content-addressed LRU holding artifacts of both kinds — single-pivot
// *Compiled and k-ary *CompiledTuple, whose keys (Key, KeyTuple) are
// domain-separated — under one capacity, with singleflight admission:
// concurrent misses on one key block on a single compilation instead of
// compiling in parallel, so a thundering herd of requests for a cold wrapper
// costs one determinization, not N. Artifacts are loaded through a
// TieredCache, the only loading front door.
//
// Lookups of either kind maintain the counters extract_cache_hits_total,
// extract_cache_misses_total and extract_cache_evictions_total and the gauge
// extract_cache_entries on the observer given to NewCache (nil-safe no-ops
// without one); Stats reads the same numbers without an observer. A Cache is
// safe for concurrent use.
type Cache struct {
	capacity int

	hits, misses, evictions atomic.Int64

	obsHits, obsMisses, obsEvictions *obs.Counter
	obsEntries                       *obs.Gauge

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight
}

type cacheEntry struct {
	key string
	val any // *Compiled or *CompiledTuple
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns an empty cache holding at most capacity compiled
// artifacts of either kind together (minimum 1). The observer receives the
// hit/miss/eviction counters and entry gauge; pass nil to run unobserved.
func NewCache(capacity int, o *obs.Observer) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity:     capacity,
		obsHits:      o.Counter("extract_cache_hits_total"),
		obsMisses:    o.Counter("extract_cache_misses_total"),
		obsEvictions: o.Counter("extract_cache_evictions_total"),
		obsEntries:   o.Gauge("extract_cache_entries"),
		ll:           list.New(),
		entries:      map[string]*list.Element{},
		inflight:     map[string]*flight{},
	}
}

func (c *Cache) hit() {
	c.hits.Add(1)
	c.obsHits.Inc()
}

// getOrCompile returns the artifact cached under key, compiling and
// admitting it via compile on a miss. Concurrent callers that miss on the
// same key share one compile call (singleflight): the first caller runs it,
// the rest block and receive its result — including its error. Errors are
// not cached; the next miss retries. Key and KeyTuple never collide, so the
// artifact under a key always has the kind its caller asks for.
func getOrCompile[T any](c *Cache, key string, compile func() (T, error)) (T, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hit()
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v.(T), nil
	}
	if f, ok := c.inflight[key]; ok {
		// Someone else is compiling this key; joining their flight counts as
		// a hit — no compilation work happens on this call.
		c.hit()
		c.mu.Unlock()
		<-f.done
		return f.val.(T), f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses.Add(1)
	c.obsMisses.Inc()
	c.mu.Unlock()

	v, err := compile()
	f.val, f.err = v, err

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.addLocked(key, v)
	}
	c.mu.Unlock()
	close(f.done)
	return v, err
}

// addLocked admits one artifact, evicting from the LRU tail past capacity.
func (c *Cache) addLocked(key string, val any) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		c.obsEvictions.Inc()
	}
	c.obsEntries.Set(int64(c.ll.Len()))
}

// Evict removes the artifact cached under key, counting it as an eviction.
// It reports whether the key was resident. An in-flight compilation of the
// same key is unaffected: it completes and re-admits its result. Borrowers
// that already hold the artifact keep a valid value — eviction only drops
// the cache's reference.
func (c *Cache) Evict(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.entries, key)
	c.evictions.Add(1)
	c.obsEvictions.Inc()
	c.obsEntries.Set(int64(c.ll.Len()))
	return true
}

// Flush evicts every resident artifact and returns how many were dropped.
// Like Evict it never interrupts an in-flight compilation and never
// invalidates values already handed out — it is the operational "cold the
// cache now" lever (and the eviction seam the API-sequence fuzz harness
// drives between extractions).
func (c *Cache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	clear(c.entries)
	c.evictions.Add(int64(n))
	c.obsEvictions.Add(int64(n))
	c.obsEntries.Set(0)
	return n
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the cache's lifetime hit/miss/eviction counts and current
// size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// CompileArtifact compiles a persisted expression into a shareable artifact:
// a fresh symbol table, the parsed expression, and its matcher. The budget
// and deadline in opt bound the compilation; the stored expression and its
// component languages keep the budget but drop the deadline, as
// DecodeArtifact's do, since the artifact outlives the request that
// happened to compile it.
func CompileArtifact(src string, sigmaNames []string, opt machine.Options) (*Compiled, error) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll(sigmaNames...)...)
	expr, err := Parse(src, tab, sigma, opt)
	if err != nil {
		return nil, err
	}
	m, err := expr.Compile()
	if err != nil {
		return nil, err
	}
	stored := opt.WithoutContext()
	expr.opt = stored
	expr.left, expr.right = expr.left.WithOptions(stored), expr.right.WithOptions(stored)
	expr.mc.once.Do(func() { expr.mc.m = m })
	return &Compiled{
		Tab: tab, Expr: expr, Matcher: m,
		Src: src, SigmaNames: append([]string(nil), sigmaNames...),
	}, nil
}
