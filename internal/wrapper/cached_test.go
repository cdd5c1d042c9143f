package wrapper

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
)

func trainedPayload(t *testing.T) []byte {
	t.Helper()
	w, err := Train([]Sample{
		{HTML: fig1Top, Target: TargetMarker()},
		{HTML: fig1Bottom, Target: TargetMarker()},
	}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	data, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadCachedAgreesWithLoad: a cache-restored wrapper must behave exactly
// like a plainly loaded one, and repeated restores must hit the cache.
func TestLoadCachedAgreesWithLoad(t *testing.T) {
	data := trainedPayload(t)
	plain, err := Load(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	var wrappers []*Wrapper
	for i := 0; i < 3; i++ {
		w, err := LoadCached(data, machine.Options{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		wrappers = append(wrappers, w)
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits, 1 entry", s)
	}
	for _, page := range []string{fig1Top, fig1Bottom, fig1Novel} {
		want, wantErr := plain.Extract(page)
		for i, w := range wrappers {
			got, gotErr := w.Extract(page)
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && got.Span != want.Span) {
				t.Errorf("restore %d: %v/%v, want %v/%v", i, got, gotErr, want, wantErr)
			}
		}
	}
	if wrappers[0].Strategy() != plain.Strategy() {
		t.Errorf("strategy = %q, want %q", wrappers[0].Strategy(), plain.Strategy())
	}
}

// TestLoadCachedErrorClassification mirrors the Load contract.
func TestLoadCachedErrorClassification(t *testing.T) {
	cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	for _, bad := range []string{`{`, `{"version":9}`, `{"version":1,"expr":"(((","sigma":["P"]}`} {
		if _, err := LoadCached([]byte(bad), machine.Options{}, cache); !errors.Is(err, ErrMalformedInput) {
			t.Errorf("payload %q: err = %v, want ErrMalformedInput", bad, err)
		}
	}
	// Budget exhaustion during the cold compile must stay detectable.
	data := trainedPayload(t)
	if _, err := LoadCached(data, machine.Options{MaxStates: 1}, cache); !errors.Is(err, machine.ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	// A nil cache degrades to plain Load.
	if _, err := LoadCached(data, machine.Options{}, nil); err != nil {
		t.Errorf("nil cache: %v", err)
	}
}

// TestLoadCachedConcurrent restores one payload from many goroutines sharing
// a cache and extracts with every copy concurrently (run under -race by make
// race): the shared table/expression/matcher must tolerate this.
func TestLoadCachedConcurrent(t *testing.T) {
	data := trainedPayload(t)
	cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				w, err := LoadCached(data, machine.Options{}, cache)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Extract(fig1Novel); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := cache.Stats().Misses; got != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", got)
	}
}

func TestLoadFleetCached(t *testing.T) {
	data := trainedPayload(t)
	f := NewFleet()
	w, err := Load(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Add("top", w)
	f.Add("bottom", w)
	blob, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	g, err := LoadFleetCached(blob, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", g.Len())
	}
	// Both sites persist the same expression: one compile serves both.
	if s := cache.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want shared compile (1 miss, 1 hit)", s)
	}
	if _, err := g.ExtractFrom("top", fig1Novel); err != nil {
		t.Error(err)
	}
	if _, err := LoadFleetCached([]byte(`{"version":1,"kind":"pod"}`), machine.Options{}, cache); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("bad kind: err = %v, want ErrMalformedInput", err)
	}
}

// TestLoadFleetCachedFirstErrorInKeyOrder: members load in parallel, yet a
// fleet with several bad entries reports the same one on every load — the
// first failing key in sorted order.
func TestLoadFleetCachedFirstErrorInKeyOrder(t *testing.T) {
	good := string(trainedPayload(t))
	blob := []byte(`{"version":1,"kind":"fleet","wrappers":{"e":{"version":9},"a":` + good +
		`,"c":{"version":1,"expr":"(((","sigma":["P"]},"b":` + good + `,"d":{"version":9}}}`)
	for i := 0; i < 20; i++ {
		cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
		_, err := LoadFleetCached(blob, machine.Options{}, cache)
		if !errors.Is(err, ErrMalformedInput) || !strings.Contains(err.Error(), `fleet entry "c"`) {
			t.Fatalf("load %d: err = %v, want ErrMalformedInput naming entry \"c\"", i, err)
		}
	}
}

func TestLoadTupleCachedAgreesWithLoadTuple(t *testing.T) {
	data := recordsPayload(t)
	plain, err := LoadTuple(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := extract.NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := extract.NewTieredCache(extract.NewCache(8, nil), disk)

	cached, err := LoadTupleCached(data, machine.Options{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Arity() != plain.Arity() {
		t.Fatalf("arity %d vs %d", cached.Arity(), plain.Arity())
	}
	r1, err1 := plain.ExtractAll(recordsPage)
	r2, err2 := cached.ExtractAll(recordsPage)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Errorf("record %d slot %d differs", i, j)
			}
		}
	}
	// The compile was written through to disk; a second load shares the
	// cached tuple.
	if disk.Len() != 1 {
		t.Fatalf("disk entries = %d, want 1", disk.Len())
	}
	again, err := LoadTupleCachedCtx(context.Background(), data, machine.Options{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tuple() != cached.Tuple() {
		t.Error("second cached load compiled a fresh tuple")
	}
	// A nil cache degrades to LoadTuple.
	if _, err := LoadTupleCached(data, machine.Options{}, nil); err != nil {
		t.Fatalf("nil-cache load: %v", err)
	}
}

func TestLoadTupleCachedErrorClassification(t *testing.T) {
	tc := extract.NewTieredCache(extract.NewCache(2, nil), nil)
	if _, err := LoadTupleCached([]byte("{"), machine.Options{}, tc); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("bad JSON: %v", err)
	}
	// A single-pivot payload is not a tuple wrapper.
	plain, err := Train([]Sample{{HTML: `<form><input data-target></form>`}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTupleCached(pd, machine.Options{}, tc); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("plain payload: %v", err)
	}
	// Budget exhaustion during the compile keeps its sentinel.
	if _, err := LoadTupleCached(recordsPayload(t), machine.Options{MaxStates: 1}, tc); !errors.Is(err, machine.ErrBudget) {
		t.Errorf("budget: %v", err)
	}
}

// TestLoadsRespectKind: every loader goes through one envelope decoder, so
// a tuple payload never restores as a single-pivot wrapper (nor the
// converse), unknown kinds are rejected, and the fleet loaders restore each
// entry as its own kind.
func TestLoadsRespectKind(t *testing.T) {
	tuple := `{"version":1,"kind":"tuple","expr":"q* <p> q*","sigma":["p","q"]}`
	single := string(trainedPayload(t))
	tc := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	var none machine.Options
	if _, err := Load([]byte(tuple), none); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("Load(tuple payload): err = %v, want ErrMalformedInput", err)
	}
	if _, err := LoadCached([]byte(tuple), none, tc); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("LoadCached(tuple payload): err = %v, want ErrMalformedInput", err)
	}
	if _, err := LoadTuple([]byte(single), none); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("LoadTuple(single-pivot payload): err = %v, want ErrMalformedInput", err)
	}
	pod := `{"version":1,"kind":"pod","expr":"q* <p> q*","sigma":["p","q"]}`
	if _, err := LoadAny(context.Background(), []byte(pod), none, tc); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("LoadAny(unknown kind): err = %v, want ErrMalformedInput", err)
	}

	fleet := []byte(`{"version":1,"kind":"fleet","wrappers":{"parts":` + tuple + `,"site":` + single + `}}`)
	check := func(name string, f *Fleet, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.GetTuple("parts") == nil || f.Get("parts") != nil {
			t.Errorf("%s: tuple entry not restored as a tuple wrapper", name)
		}
		if f.Get("site") == nil || f.GetTuple("site") != nil {
			t.Errorf("%s: single-pivot entry not restored as a single-pivot wrapper", name)
		}
	}
	f, err := LoadFleet(fleet, none)
	check("LoadFleet", f, err)
	g, err := LoadFleetCached(fleet, none, tc)
	check("LoadFleetCached", g, err)
	// A mixed fleet persists and restores both kinds.
	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h, err := LoadFleet(data, none)
	check("LoadFleet(MarshalJSON)", h, err)
}

// TestCachedArtifactOutlivesFirstLoader: the context of the load that
// compiled an artifact bounds that compile only. After it ends, a wrapper
// that shares the artifact through a memory hit must still run language
// operations on its components — the unambiguity test, the rigid-widening
// Refresh (a Union, then Unambiguous) and a tuple segment's products.
func TestCachedArtifactOutlivesFirstLoader(t *testing.T) {
	single, tuple := trainedPayload(t), recordsPayload(t)
	cache := extract.NewTieredCache(extract.NewCache(8, nil), nil)
	ctx, cancel := context.WithCancel(context.Background())
	bounded := machine.Options{}.WithContext(ctx)
	if _, err := LoadCachedCtx(ctx, single, bounded, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTupleCachedCtx(ctx, tuple, bounded, cache); err != nil {
		t.Fatal(err)
	}
	cancel()

	w, err := LoadCached(single, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := LoadTupleCached(tuple, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want the second loads to be memory hits", s)
	}
	if ok, err := w.Expr().Unambiguous(); err != nil || !ok {
		t.Errorf("Expr().Unambiguous() = %v, %v; want true, nil", ok, err)
	}
	if _, err := w.Refresh(Sample{HTML: fig1Future, Target: TargetMarker()}); err != nil {
		t.Errorf("rigid-widening Refresh: %v", err)
	}
	for j := 0; j <= tw.Arity(); j++ {
		seg := tw.Tuple().Segment(j)
		if _, err := seg.Union(seg); err != nil {
			t.Errorf("segment %d Union: %v", j, err)
		}
	}
}
