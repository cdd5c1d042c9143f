package extract

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilex/internal/machine"
	"resilex/internal/obs"
)

// artifactExt is the on-disk suffix of persisted compiled artifacts. Files
// with other suffixes (including in-progress temp files) are ignored by
// scans and never counted against capacity.
const artifactExt = ".rxa"

// DiskStats is a point-in-time view of the disk tier. Corrupt counts blobs
// that were present but undecodable — torn writes, stale format versions,
// bit rot — each of which was discarded and recorded as a miss as well.
type DiskStats struct {
	Hits, Misses, Evictions, Corrupt int64
	Entries                          int
}

// DiskCache is the second tier of the compiled-artifact cache: a directory
// of EncodeArtifact and EncodeTupleArtifact blobs under the same
// content-addressed keys as the in-memory tier, so compiled wrappers
// survive process restarts and can be shared between processes on one host.
//
// Capacity counts artifacts on disk: capacity < 0 is unbounded, capacity 0
// stores nothing (every Put is dropped, every Get misses), and otherwise the
// least-recently-used artifact — by file modification time, which Get
// refreshes — is evicted once the directory exceeds capacity. Writes are
// atomic (temp file + rename), so a crash mid-Put leaves at worst an ignored
// temp file, never a half-written artifact under a live key. A blob that
// fails to decode — torn write recovered from a hard crash, a stale format
// version, plain corruption — is deleted and reported as a miss, and the
// caller recompiles; see internal/codec for the framing this relies on.
//
// Lookups maintain extract_diskcache_{hits,misses,evictions,corrupt}_total
// and the gauge extract_diskcache_entries on the observer given to
// NewDiskCache (nil-safe no-ops without one). A DiskCache is safe for
// concurrent use.
type DiskCache struct {
	dir      string
	capacity int

	hits, misses, evictions, corrupt atomic.Int64

	obsHits, obsMisses, obsEvictions, obsCorrupt *obs.Counter
	obsEntries                                   *obs.Gauge

	mu sync.Mutex // serializes directory mutation (writes, evictions, deletes)
}

// NewDiskCache returns a disk tier rooted at dir, creating it if needed.
func NewDiskCache(dir string, capacity int, o *obs.Observer) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extract: disk cache: %w", err)
	}
	d := &DiskCache{
		dir:          dir,
		capacity:     capacity,
		obsHits:      o.Counter("extract_diskcache_hits_total"),
		obsMisses:    o.Counter("extract_diskcache_misses_total"),
		obsEvictions: o.Counter("extract_diskcache_evictions_total"),
		obsCorrupt:   o.Counter("extract_diskcache_corrupt_total"),
		obsEntries:   o.Gauge("extract_diskcache_entries"),
	}
	// A restarted process opens a populated directory: report the surviving
	// artifacts, not zero, before the first Put.
	d.obsEntries.Set(int64(d.countEntries()))
	return d, nil
}

// Dir returns the directory the cache persists into.
func (d *DiskCache) Dir() string { return d.dir }

// keyPath maps a content-addressed key to its artifact path, rejecting keys
// that could escape the cache directory. Keys from Key are lowercase hex and
// always pass.
func (d *DiskCache) keyPath(key string) (string, error) {
	if key == "" || len(key) > 128 {
		return "", fmt.Errorf("extract: disk cache: invalid key %q", key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-' || c == '_':
		default:
			return "", fmt.Errorf("extract: disk cache: invalid key %q", key)
		}
	}
	return filepath.Join(d.dir, key+artifactExt), nil
}

func (d *DiskCache) miss() {
	d.misses.Add(1)
	d.obsMisses.Inc()
}

// Get loads and decodes the single-pivot artifact stored under key,
// refreshing its recency, or reports ok=false on a miss. Undecodable blobs
// are discarded (counted under Corrupt and as a miss); a blob whose content
// re-hashes to a different key — a renamed or cross-wired file — is treated
// the same way, so a disk hit is always the artifact the key names.
func (d *DiskCache) Get(key string, opt machine.Options) (*Compiled, bool) {
	return diskGet(d, singleKind, key, "", nil, opt)
}

// diskGet is the one disk-read path, shared by both artifact kinds. src and
// sigmaNames are the persisted form the caller computed key from, or ""
// and nil when it has none (Get).
func diskGet[T artifact](d *DiskCache, k kind[T], key, src string, sigmaNames []string, opt machine.Options) (T, bool) {
	var zero T
	path, err := d.keyPath(key)
	if err != nil {
		d.miss()
		return zero, false
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		d.miss()
		return zero, false
	}
	c, err := k.decode(blob, opt)
	ok := err == nil
	if ok {
		// Content addressing is the integrity contract of the tier: the
		// decoded source must hash back to the key that named the file. Key
		// is a pure function of the source and Σ names, so a blob holding
		// exactly the ones the caller keyed cannot fail the check, and only
		// any other blob is parsed again to re-key it.
		csrc, cnames := c.persisted()
		if src == "" || csrc != src || !slices.Equal(cnames, sigmaNames) {
			rekey, kerr := k.key(csrc, cnames)
			ok = kerr == nil && rekey == key
		}
	}
	if !ok {
		d.mu.Lock()
		os.Remove(path)
		d.mu.Unlock()
		d.corrupt.Add(1)
		d.obsCorrupt.Inc()
		d.miss()
		d.obsEntries.Set(int64(d.countEntries()))
		return zero, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU recency bump
	d.hits.Add(1)
	d.obsHits.Inc()
	return c, true
}

// Put encodes the single-pivot artifact and stores it under key, evicting
// the least-recently-used artifacts past capacity. Artifacts that cannot
// encode (no persisted source) and capacity-0 caches drop the write without
// error; I/O failures are returned.
func (d *DiskCache) Put(key string, c *Compiled) error {
	return diskPut(d, singleKind, key, c)
}

// PutTuple is Put for a k-ary tuple artifact; tuple blobs count against the
// same capacity as single-pivot ones.
func (d *DiskCache) PutTuple(key string, c *CompiledTuple) error {
	return diskPut(d, tupleKind, key, c)
}

// diskPut atomically writes one artifact of either kind under key.
func diskPut[T artifact](d *DiskCache, k kind[T], key string, c T) error {
	if d.capacity == 0 {
		return nil
	}
	blob, err := k.encode(c)
	if err != nil {
		return err
	}
	path, err := d.keyPath(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("extract: disk cache: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("extract: disk cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("extract: disk cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("extract: disk cache: %w", err)
	}
	d.obsEntries.Set(int64(d.evictLocked()))
	return nil
}

// artifactsLocked lists the artifact files in directory order, without
// sorting them or stat-ing any: all that counting needs.
func (d *DiskCache) artifactsLocked() []os.DirEntry {
	f, err := os.Open(d.dir)
	if err != nil {
		return nil
	}
	defer f.Close()
	all, err := f.ReadDir(-1)
	if err != nil {
		return nil
	}
	out := all[:0]
	for _, e := range all {
		if !e.IsDir() && strings.HasSuffix(e.Name(), artifactExt) {
			out = append(out, e)
		}
	}
	return out
}

// evictLocked removes the least-recently-used artifacts past capacity,
// oldest modification time first and then by name, and returns how many
// remain. It scans the directory once, and stats each entry once only when
// the scan finds the tier over capacity.
func (d *DiskCache) evictLocked() int {
	entries := d.artifactsLocked()
	if d.capacity < 0 || len(entries) <= d.capacity {
		return len(entries)
	}
	type aged struct {
		name string
		mod  time.Time
	}
	byAge := make([]aged, 0, len(entries))
	for _, e := range entries {
		if fi, err := e.Info(); err == nil { // an entry that fails is gone
			byAge = append(byAge, aged{e.Name(), fi.ModTime()})
		}
	}
	slices.SortFunc(byAge, func(a, b aged) int {
		if c := a.mod.Compare(b.mod); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	remain := len(byAge)
	for _, e := range byAge[:max(remain-d.capacity, 0)] {
		switch err := os.Remove(filepath.Join(d.dir, e.name)); {
		case err == nil:
			d.evictions.Add(1)
			d.obsEvictions.Inc()
			remain--
		case errors.Is(err, fs.ErrNotExist):
			remain--
		}
	}
	return remain
}

func (d *DiskCache) countEntries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.artifactsLocked())
}

// Len reports the number of artifacts currently on disk.
func (d *DiskCache) Len() int { return d.countEntries() }

// Stats returns the tier's lifetime counters and current size.
func (d *DiskCache) Stats() DiskStats {
	return DiskStats{
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Evictions: d.evictions.Load(),
		Corrupt:   d.corrupt.Load(),
		Entries:   d.countEntries(),
	}
}
