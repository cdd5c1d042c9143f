package extract

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"resilex/internal/machine"
	"resilex/internal/obs"
)

func mustCompile(t *testing.T, src string, names []string) *Compiled {
	t.Helper()
	c, err := CompileArtifact(src, names, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustKey(t *testing.T, c *Compiled) string {
	t.Helper()
	k, err := Key(c.Src, c.SigmaNames)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// artifactPath returns the single on-disk artifact file, for tests that
// corrupt it in place.
func artifactPath(t *testing.T, d *DiskCache) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(d.Dir(), "*"+artifactExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one artifact on disk, got %v (%v)", matches, err)
	}
	return matches[0]
}

func TestDiskCacheRoundTrip(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, "q* <p> .*", []string{"p", "q"})
	key := mustKey(t, c)
	if _, ok := d.Get(key, machine.Options{}); ok {
		t.Fatal("hit on empty cache")
	}
	if err := d.Put(key, c); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key, machine.Options{})
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Src != c.Src || !machine.StructurallyEqual(got.Expr.Left().DFA(), c.Expr.Left().DFA()) {
		t.Fatal("decoded artifact differs")
	}
	s := d.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Corrupt != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskCacheCapacityZero: a capacity-0 tier stores nothing — every Put is
// dropped without error and every Get misses.
func TestDiskCacheCapacityZero(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, "q* <p> .*", []string{"p", "q"})
	key := mustKey(t, c)
	if err := d.Put(key, c); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("capacity-0 cache holds %d entries", d.Len())
	}
	if _, ok := d.Get(key, machine.Options{}); ok {
		t.Fatal("capacity-0 cache returned a hit")
	}
	if s := d.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskCacheCapacityOne: with capacity 1 the older artifact (by
// modification time, refreshed on Get) is evicted as soon as a second one
// lands.
func TestDiskCacheCapacityOne(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mustCompile(t, "q* <p> .*", []string{"p", "q"})
	b := mustCompile(t, "<p> p*", []string{"p", "q"})
	ka, kb := mustKey(t, a), mustKey(t, b)
	if err := d.Put(ka, a); err != nil {
		t.Fatal(err)
	}
	// Make a strictly older than any later write even on coarse-mtime
	// filesystems.
	old := artifactPath(t, d)
	past := time.Now().Add(-time.Hour)
	os.Chtimes(old, past, past)
	if err := d.Put(kb, b); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d entries", d.Len())
	}
	if _, ok := d.Get(ka, machine.Options{}); ok {
		t.Fatal("evicted artifact still served")
	}
	if _, ok := d.Get(kb, machine.Options{}); !ok {
		t.Fatal("resident artifact missed")
	}
	if s := d.Stats(); s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskCacheStaleVersionRecompiled: a blob written by a previous format
// version is discarded (counted corrupt) and the caller recompiles — the
// upgrade story for persisted caches.
func TestDiskCacheStaleVersionRecompiled(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, "q p <p> q*", []string{"p", "q"})
	key := mustKey(t, c)
	if err := d.Put(key, c); err != nil {
		t.Fatal(err)
	}
	path := artifactPath(t, d)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[4]-- // pretend a prior format version wrote this file
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key, machine.Options{}); ok {
		t.Fatal("stale-version blob served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("stale-version blob not deleted")
	}
	s := d.Stats()
	if s.Corrupt != 1 || s.Misses != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// The tier recovers: the recompiled artifact is re-admitted and served.
	if err := d.Put(key, c); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key, machine.Options{}); !ok {
		t.Fatal("re-put artifact missed")
	}
}

// TestDiskCacheTornWriteRecovered: a truncated blob — the on-disk shape of a
// torn write that survived a hard crash on a filesystem without atomic
// rename durability — is discarded, never served, never panics.
func TestDiskCacheTornWriteRecovered(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, "q p <p> q*", []string{"p", "q"})
	key := mustKey(t, c)
	if err := d.Put(key, c); err != nil {
		t.Fatal(err)
	}
	path := artifactPath(t, d)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, len(blob) / 2, len(blob) - 1} {
		if err := os.WriteFile(path, blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(key, machine.Options{}); ok {
			t.Fatalf("torn blob of %d bytes served", n)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("torn blob of %d bytes not deleted", n)
		}
	}
	if s := d.Stats(); s.Corrupt != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDiskCacheKeyMismatchDiscarded: a blob that decodes fine but whose
// content hashes to a different key — a renamed or cross-wired cache file —
// is treated as corrupt, so a hit always returns the artifact the key names.
func TestDiskCacheKeyMismatchDiscarded(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mustCompile(t, "q* <p> .*", []string{"p", "q"})
	b := mustCompile(t, "<p> p*", []string{"p", "q"})
	ka, kb := mustKey(t, a), mustKey(t, b)
	if err := d.Put(ka, a); err != nil {
		t.Fatal(err)
	}
	// Cross-wire: b's blob under a's key.
	blob, err := EncodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.Dir(), ka+artifactExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(ka, machine.Options{}); ok {
		t.Fatal("cross-wired blob served")
	}
	if s := d.Stats(); s.Corrupt != 1 {
		t.Fatalf("stats = %+v", s)
	}
	_ = kb
}

func TestDiskCacheRejectsBadKeys(t *testing.T) {
	d, err := NewDiskCache(t.TempDir(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, "q* <p> .*", []string{"p", "q"})
	for _, key := range []string{"", "../escape", "a/b", "a.b", string(make([]byte, 200))} {
		if err := d.Put(key, c); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, ok := d.Get(key, machine.Options{}); ok {
			t.Errorf("Get(%q) hit", key)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("bad keys created %d entries", d.Len())
	}
}

// TestDiskEntriesGaugeTracksLen: the extract_diskcache_entries gauge must
// read what Len() counts after every mutation — puts that add or overwrite,
// puts that evict, corrupt-blob removals, a reopen over a populated
// directory — and neither may count temp files, foreign files or
// directories.
func TestDiskEntriesGaugeTracksLen(t *testing.T) {
	dir := t.TempDir()
	o := obs.New()
	d, err := NewDiskCache(dir, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want int) {
		t.Helper()
		if n, g := d.Len(), o.Metrics.Snapshot().Gauges["extract_diskcache_entries"]; n != want || g != int64(want) {
			t.Fatalf("%s: Len() = %d, gauge = %d, want %d", step, n, g, want)
		}
	}
	for _, name := range []string{".put-123", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"+artifactExt), 0o755); err != nil {
		t.Fatal(err)
	}
	var keys []string
	srcs := []string{"q* <p> .*", "<p> p*", "q p <p> q*", "p <p> q", "(p | q) <p> q*"}
	for i, src := range srcs {
		c := mustCompile(t, src, []string{"p", "q"})
		keys = append(keys, mustKey(t, c))
		if err := d.Put(keys[i], c); err != nil {
			t.Fatal(err)
		}
		check("put "+src, min(i+1, 3))
		if err := d.Put(keys[i], c); err != nil {
			t.Fatal(err)
		}
		check("overwrite "+src, min(i+1, 3))
	}
	if s := d.Stats(); s.Evictions != 2 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 2 evictions and 3 entries", s)
	}
	if err := os.WriteFile(filepath.Join(dir, keys[4]+artifactExt), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(keys[4], machine.Options{}); ok {
		t.Fatal("corrupt blob served")
	}
	check("corrupt removal", 2)

	o2 := obs.New()
	reopened, err := NewDiskCache(dir, -1, o2)
	if err != nil {
		t.Fatal(err)
	}
	if g := o2.Metrics.Snapshot().Gauges["extract_diskcache_entries"]; g != 2 || reopened.Len() != 2 {
		t.Fatalf("reopen: gauge %d, Len() %d, want 2", g, reopened.Len())
	}
}

// BenchmarkDiskPut times the disk tier's bookkeeping over a directory that
// holds 1,000 artifacts: a write-through into an unbounded tier, one into a
// tier at capacity (every write evicts the oldest artifact), and Stats.
func BenchmarkDiskPut(b *testing.B) {
	c, err := CompileArtifact("q* <p> .*", []string{"p", "q"}, machine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const entries = 1000
	open := func(b *testing.B, capacity int) *DiskCache {
		d, err := NewDiskCache(b.TempDir(), capacity, nil)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			if err := d.Put(fmt.Sprintf("fill-%04d", i), c); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		return d
	}
	b.Run("put-unbounded", func(b *testing.B) {
		d := open(b, -1)
		for i := 0; i < b.N; i++ {
			if err := d.Put("again", c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("put-bounded", func(b *testing.B) {
		d := open(b, entries)
		for i := 0; i < b.N; i++ {
			if err := d.Put(fmt.Sprintf("put-%d", i), c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats", func(b *testing.B) {
		d := open(b, -1)
		for i := 0; i < b.N; i++ {
			if s := d.Stats(); s.Entries != entries {
				b.Fatalf("entries = %d", s.Entries)
			}
		}
	})
}
