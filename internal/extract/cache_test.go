package extract

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

func TestKeyCanonical(t *testing.T) {
	base, err := Key("q* <p> .*", []string{"p", "q", "r"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		src   string
		sigma []string
		same  bool
	}{
		{"identical", "q* <p> .*", []string{"p", "q", "r"}, true},
		{"sigma order", "q* <p> .*", []string{"r", "q", "p"}, true},
		{"sigma dup", "q* <p> .*", []string{"p", "q", "q", "r"}, true},
		{"union operand order", "(q | r)* <p> .*", []string{"p", "q", "r"}, false}, // differs from base, but see below
		{"different expr", "r* <p> .*", []string{"p", "q", "r"}, false},
		{"different sigma", "q* <p> .*", []string{"p", "q"}, false},
	}
	for _, c := range cases {
		got, err := Key(c.src, c.sigma)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (got == base) != c.same {
			t.Errorf("%s: key equality = %v, want %v", c.name, got == base, c.same)
		}
	}
	// Union commutativity: operand order must not change the address.
	a, err := Key("(q | r)* <p> .*", []string{"p", "q", "r"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key("(r | q)* <p> .*", []string{"q", "r", "p"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("union operand order changed the key: %s vs %s", a, b)
	}
	if _, err := Key("(((", []string{"p"}); err == nil {
		t.Error("unparseable expression produced a key")
	}
}

func TestCacheLRUAndStats(t *testing.T) {
	o := obs.New()
	c := NewCache(2, o)
	tc := NewTieredCache(c, nil)
	load := func(i int) {
		t.Helper()
		// Syntactically distinct prefixes — ".*" vs "(q|p)*" would collide,
		// which is the cache working, not three artifacts.
		src := fmt.Sprintf("%s <p> .*", []string{"q*", "(q q)*", "q? q*"}[i])
		if _, err := tc.Load(src, []string{"p", "q"}, machine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	load(0) // miss
	load(0) // hit
	load(1) // miss
	load(2) // miss, evicts artifact 0
	load(0) // miss again (was evicted)
	s := c.Stats()
	want := CacheStats{Hits: 1, Misses: 4, Evictions: 2, Entries: 2}
	if s != want {
		t.Errorf("Stats() = %+v, want %+v", s, want)
	}
	if got := s.HitRate(); got != 0.2 {
		t.Errorf("HitRate() = %v, want 0.2", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
	// The same numbers must be visible through the observer registry.
	snap := o.Metrics.Snapshot()
	for name, want := range map[string]int64{
		"extract_cache_hits_total":      1,
		"extract_cache_misses_total":    4,
		"extract_cache_evictions_total": 2,
	} {
		if snap.Counters[name] != want {
			t.Errorf("counter %s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if snap.Gauges["extract_cache_entries"] != 2 {
		t.Errorf("gauge extract_cache_entries = %d, want 2", snap.Gauges["extract_cache_entries"])
	}
}

// TestCacheBoundsBothKinds: the memory tier is one LRU for both artifact
// kinds — one capacity bounds them together, and tuple loads move the same
// counters as single-pivot ones.
func TestCacheBoundsBothKinds(t *testing.T) {
	o := obs.New()
	tc := NewTieredCache(NewCache(1, o), nil)
	if _, err := tc.Load("q* <p> q*", []string{"p", "q"}, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.LoadTuple("q* <p> q* <p> q*", []string{"p", "q"}, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.LoadTuple("q* <p> q* <p> q*", []string{"p", "q"}, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	want := CacheStats{Hits: 1, Misses: 2, Evictions: 1, Entries: 1}
	if s := tc.Stats(); s != want {
		t.Errorf("Stats() = %+v, want %+v", s, want)
	}
	snap := o.Metrics.Snapshot()
	if n := snap.Counters["extract_cache_misses_total"]; n != 2 {
		t.Errorf("extract_cache_misses_total = %d, want 2", n)
	}
	if n := snap.Gauges["extract_cache_entries"]; n != 1 {
		t.Errorf("extract_cache_entries = %d, want 1", n)
	}
	if n := tc.FlushMem(); n != 1 {
		t.Errorf("FlushMem() = %d, want 1: a capacity-1 tier held more than one artifact", n)
	}
}

// TestCacheSingleflight hammers one cold key from many goroutines: the
// compile function must run exactly once, and every caller must receive the
// same artifact. Run under -race by make race.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8, nil)
	key, err := Key("q* <p> .*", []string{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	var compiles atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Compiled, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-gate
			comp, err := getOrCompile(c, key, func() (*Compiled, error) {
				compiles.Add(1)
				return CompileArtifact("q* <p> .*", []string{"p", "q"}, machine.Options{})
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = comp
		}(g)
	}
	close(gate)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Errorf("compile ran %d times, want 1", n)
	}
	for g, comp := range results {
		if comp != results[0] {
			t.Errorf("goroutine %d got a different artifact", g)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 15 {
		t.Errorf("hits/misses = %d/%d, want 15/1", s.Hits, s.Misses)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4, nil)
	boom := errors.New("boom")
	calls := 0
	fail := func() (*Compiled, error) { calls++; return nil, boom }
	if _, err := getOrCompile(c, "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := getOrCompile(c, "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom on retry", err)
	}
	if calls != 2 {
		t.Errorf("compile ran %d times, want 2 (errors must not be cached)", calls)
	}
	if c.Len() != 0 {
		t.Errorf("Len() = %d, want 0", c.Len())
	}
}

// TestCachedArtifactDropsDeadline: a cache entry compiled under a request
// context must stay usable after that request's deadline passes.
func TestCachedArtifactDropsDeadline(t *testing.T) {
	tc := NewTieredCache(NewCache(4, nil), nil)
	ctx, cancel := context.WithCancel(context.Background())
	comp, err := tc.Load("q* <p> .*", []string{"p", "q"}, machine.Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the compiling request's context dies
	if err := comp.Expr.Options().Err(); err != nil {
		t.Fatalf("cached expression still carries a dead context: %v", err)
	}
	q := comp.Tab.Lookup("q")
	p := comp.Tab.Lookup("p")
	if pos, ok := comp.Matcher.Find([]symtab.Symbol{q, p, q}); !ok || pos != 1 {
		t.Errorf("Find = %d,%v; want 1,true", pos, ok)
	}
}
