package extract

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"resilex/internal/machine"
)

// TestTieredLoadFlow walks one key through every tier transition: cold
// compile (miss in memory and on disk), memory hit, and — after a simulated
// restart that keeps the directory but not the process memory — a disk hit
// that skips compilation.
func TestTieredLoadFlow(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskCache(dir, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTieredCache(NewCache(8, nil), disk)
	src, names := "q* r <p> r q*", []string{"p", "q", "r"}

	c1, err := tc.Load(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ms, ds := tc.Stats(), disk.Stats(); ms.Misses != 1 || ms.Hits != 0 || ds.Misses != 1 || ds.Entries != 1 {
		t.Fatalf("after cold load: mem %+v disk %+v", ms, ds)
	}

	c2, err := tc.Load(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("memory hit returned a different artifact pointer")
	}
	if ms, ds := tc.Stats(), disk.Stats(); ms.Hits != 1 || ds.Hits != 0 {
		t.Fatalf("after warm load: mem %+v disk %+v", ms, ds)
	}

	// Restart: same directory, fresh memory tier and fresh disk handle.
	disk2, err := NewDiskCache(dir, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := NewTieredCache(NewCache(8, nil), disk2)
	c3, err := tc2.Load(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds := disk2.Stats(); ds.Hits != 1 || ds.Misses != 0 {
		t.Fatalf("after restart load: disk %+v", ds)
	}
	for _, w := range allWords(c3.Expr.Sigma(), 4) {
		got, want := c3.Matcher.All(w), c1.Matcher.All(w)
		if len(got) != len(want) {
			t.Fatalf("restart artifact disagrees on %v: %v vs %v", w, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("restart artifact disagrees on %v: %v vs %v", w, got, want)
			}
		}
	}
}

// TestTieredSingleflight: N concurrent cold Loads of one key collapse to a
// single compilation and a single disk probe — the memory tier's
// singleflight still guards the composed stack.
func TestTieredSingleflight(t *testing.T) {
	disk, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTieredCache(NewCache(8, nil), disk)
	const n = 16
	var wg sync.WaitGroup
	results := make([]*Compiled, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := tc.Load("(p | p p) <p> (p | p p)", []string{"p", "q"}, machine.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = c
		}(i)
	}
	wg.Wait()
	for _, c := range results[1:] {
		if c != results[0] {
			t.Fatal("concurrent loads produced distinct artifacts")
		}
	}
	ms, ds := tc.Stats(), disk.Stats()
	if ms.Misses != 1 || ms.Hits != n-1 {
		t.Fatalf("mem stats %+v, want 1 miss / %d hits", ms, n-1)
	}
	if ds.Misses != 1 || ds.Entries != 1 {
		t.Fatalf("disk stats %+v, want exactly one probe and one entry", ds)
	}
}

// TestTieredEvictionRacesSingleflight hammers a capacity-1 disk tier (and a
// small memory tier) with concurrent loads over more keys than either tier
// holds, so evictions run while other goroutines are inside the
// compile/decode path for the evicted keys. Run under -race this is the
// differential check that directory mutation and singleflight compose; every
// load must still return a correct artifact.
func TestTieredEvictionRacesSingleflight(t *testing.T) {
	disk, err := NewDiskCache(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTieredCache(NewCache(2, nil), disk)
	srcs := make([]string, 6)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("q p%s <p> q*", strings.Repeat(" p", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				src := srcs[(g+i)%len(srcs)]
				c, err := tc.Load(src, []string{"p", "q"}, machine.Options{})
				if err != nil {
					t.Errorf("load %q: %v", src, err)
					return
				}
				if c.Src != src {
					t.Errorf("load %q returned artifact for %q", src, c.Src)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := disk.Len(); n > 1 {
		t.Fatalf("capacity-1 disk tier holds %d entries", n)
	}
}

func TestTieredTupleLoad(t *testing.T) {
	disk, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTieredCache(NewCache(4, nil), disk)
	src, names := "q* <p> q* <r> .*", []string{"p", "q", "r"}

	c1, err := tc.LoadTuple(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if disk.Len() != 1 {
		t.Fatalf("disk entries after cold load = %d, want 1 (write-through)", disk.Len())
	}
	c2, err := tc.LoadTuple(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second load did not hit the memory tier")
	}

	// Flushing memory forces the next load through the disk tier.
	if n := tc.FlushMem(); n < 1 {
		t.Fatalf("FlushMem dropped %d entries, want ≥ 1", n)
	}
	before := disk.Stats().Hits
	c3, err := tc.LoadTuple(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if disk.Stats().Hits != before+1 {
		t.Fatal("post-flush load did not hit the disk tier")
	}
	for j := 0; j <= c1.Tuple.Arity(); j++ {
		if !machine.StructurallyEqual(c3.Tuple.Segment(j).DFA(), c1.Tuple.Segment(j).DFA()) {
			t.Fatalf("disk-decoded segment %d disagrees with the compiled original", j)
		}
	}

	// Eviction by content address only drops memory residency.
	key, err := KeyTuple(src, names)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.Mem().Evict(key) {
		t.Fatal("Evict missed a resident tuple key")
	}
	if tc.Mem().Evict(key) {
		t.Fatal("Evict hit after eviction")
	}
	if disk.Len() != 1 {
		t.Fatalf("disk entries after eviction = %d, want 1", disk.Len())
	}
}

// TestTupleDiskCorruption: a damaged tuple blob is discarded and recompiled
// rather than served.
func TestTupleDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskCache(dir, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTieredCache(NewCache(4, nil), disk)
	src, names := ".* <p> .* <p> .*", []string{"p", "q"}
	if _, err := tc.LoadTuple(src, names, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+artifactExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob = %v, %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tc.FlushMem()
	if _, err := tc.LoadTuple(src, names, machine.Options{}); err != nil {
		t.Fatalf("load over a corrupt blob should recompile, got %v", err)
	}
	if disk.Stats().Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", disk.Stats().Corrupt)
	}
}

// TestTupleAndSingleShareDiskDir: the two artifact kinds coexist under one
// directory without aliasing each other's keys.
func TestTupleAndSingleShareDiskDir(t *testing.T) {
	disk, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTieredCache(NewCache(4, nil), disk)
	src, names := "q* <p> q*", []string{"p", "q"} // parses under both grammars
	if _, err := tc.Load(src, names, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.LoadTuple(src, names, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	if disk.Len() != 2 {
		t.Fatalf("disk entries = %d, want 2 (domain-separated keys)", disk.Len())
	}
	tc.FlushMem()
	if _, err := tc.Load(src, names, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.LoadTuple(src, names, machine.Options{}); err != nil {
		t.Fatal(err)
	}
	if disk.Stats().Corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", disk.Stats().Corrupt)
	}
}

// TestTieredDiskHitIntegrity: a disk hit whose blob holds the source and Σ
// names the lookup keyed skips the re-key parse; every other blob is still
// re-keyed. A cross-wired blob under the looked-up key is discarded and
// recompiled, and a blob written from an equivalent spelling (the same Key,
// another source or name order) is served from disk.
func TestTieredDiskHitIntegrity(t *testing.T) {
	restart := func(dir string) (*TieredCache, *DiskCache) {
		t.Helper()
		disk, err := NewDiskCache(dir, -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewTieredCache(NewCache(4, nil), disk), disk
	}
	names := []string{"p", "q"}

	a := mustCompile(t, "q* <p> .*", names)
	for _, wired := range []struct {
		name string
		blob *Compiled
	}{
		{"source", mustCompile(t, "<p> p*", names)},
		{"sigma", mustCompile(t, a.Src, []string{"p", "q", "r"})},
	} {
		t.Run("cross-wired "+wired.name, func(t *testing.T) {
			dir := t.TempDir()
			blob, err := EncodeArtifact(wired.blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, mustKey(t, a)+artifactExt), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			tc, disk := restart(dir)
			c, err := tc.Load(a.Src, names, machine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if c.Src != a.Src || !slices.Equal(c.SigmaNames, names) {
				t.Fatalf("load served %q over %v, want a recompiled %q over %v", c.Src, c.SigmaNames, a.Src, names)
			}
			if s := disk.Stats(); s.Corrupt != 1 || s.Hits != 0 || s.Misses != 1 {
				t.Fatalf("disk stats = %+v, want the cross-wired blob discarded (1 corrupt, 1 miss)", s)
			}
			// The recompile wrote the right blob through: the next restart
			// hits it.
			tc, disk = restart(dir)
			if _, err := tc.Load(a.Src, names, machine.Options{}); err != nil {
				t.Fatal(err)
			}
			if s := disk.Stats(); s.Hits != 1 || s.Corrupt != 0 {
				t.Fatalf("disk stats after the rewrite = %+v, want 1 hit", s)
			}
		})
	}

	for _, spelling := range []struct {
		name         string
		stored, load string
		storedNames  []string
	}{
		{"source", "(p | q)* <p> .*", "(q | p)* <p> .*", names},
		{"sigma order", "(p | q)* <p> .*", "(p | q)* <p> .*", []string{"q", "p"}},
	} {
		t.Run("equivalent "+spelling.name, func(t *testing.T) {
			dir := t.TempDir()
			stored := mustCompile(t, spelling.stored, spelling.storedNames)
			key := mustKey(t, stored)
			if k, err := Key(spelling.load, names); err != nil || k != key {
				t.Fatalf("Key(%q) = %s (%v), want the stored blob's %s", spelling.load, k, err, key)
			}
			tc, disk := restart(dir)
			if err := disk.Put(key, stored); err != nil {
				t.Fatal(err)
			}
			c, err := tc.Load(spelling.load, names, machine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s := disk.Stats(); s.Hits != 1 || s.Corrupt != 0 || s.Misses != 0 {
				t.Fatalf("disk stats = %+v, want the equivalent blob served from disk", s)
			}
			if c.Src != spelling.stored {
				t.Fatalf("served %q, want the stored blob's %q", c.Src, spelling.stored)
			}
		})
	}
}
