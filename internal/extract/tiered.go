package extract

import (
	"context"

	"resilex/internal/machine"
	"resilex/internal/obs"
)

// TieredCache composes the in-memory LRU with the disk tier under one
// content-addressed key space: memory → disk → compile. It is the only
// loading front door of the compiled-artifact cache, and it serves both
// artifact kinds — single-pivot (Load) and k-ary tuple (LoadTuple) —
// through one load path, one memory tier and one disk directory. The memory
// tier's singleflight is preserved — concurrent cold misses on one key
// collapse to a single disk probe and (on a disk miss) a single compilation
// — and every fresh compilation is written through to disk, so the artifact
// survives the process. A nil disk tier degrades to the memory tier alone. A
// TieredCache is safe for concurrent use.
type TieredCache struct {
	mem  *Cache
	disk *DiskCache
}

// NewTieredCache composes the two tiers; disk may be nil (memory only). The
// memory tier's capacity bounds single-pivot and tuple artifacts together,
// and loads of either kind move its counters.
func NewTieredCache(mem *Cache, disk *DiskCache) *TieredCache {
	return &TieredCache{mem: mem, disk: disk}
}

// Mem returns the memory tier.
func (t *TieredCache) Mem() *Cache { return t.mem }

// Disk returns the disk tier, or nil when running memory-only.
func (t *TieredCache) Disk() *DiskCache { return t.disk }

// Tier names for LoadCtx attribution: which tier satisfied a load.
const (
	TierMemory  = "memory"
	TierDisk    = "disk"
	TierCompile = "compile"
)

// artifact is the constraint over the two compiled artifact kinds: each
// reports the persisted form it was compiled from, so the disk tier can
// check that a decoded blob re-keys to the name it was stored under.
type artifact interface {
	persisted() (src string, sigmaNames []string)
}

func (c *Compiled) persisted() (string, []string)      { return c.Src, c.SigmaNames }
func (c *CompiledTuple) persisted() (string, []string) { return c.Src, c.SigmaNames }

// kind is the per-kind table behind the one tiered load path: how an
// artifact kind is content-addressed, compiled, and moved to and from disk.
type kind[T artifact] struct {
	key     func(src string, sigmaNames []string) (string, error)
	compile func(src string, sigmaNames []string, opt machine.Options) (T, error)
	encode  func(T) ([]byte, error)
	decode  func(blob []byte, opt machine.Options) (T, error)
}

var (
	singleKind = kind[*Compiled]{Key, CompileArtifact, EncodeArtifact, DecodeArtifact}
	tupleKind  = kind[*CompiledTuple]{KeyTuple, CompileTupleArtifact, EncodeTupleArtifact, DecodeTupleArtifact}
)

// Load returns the artifact for the persisted expression src over
// sigmaNames: from memory if resident, else decoded from disk (and
// re-admitted to memory), else compiled (and written through to both
// tiers). opt bounds the work of this call only; artifacts are stored with
// any deadline stripped, so one request's context never expires another
// request's cache entry. Disk write failures are deliberately swallowed —
// the disk tier is an optimization, and a full or read-only volume must not
// fail requests that compiled fine.
func (t *TieredCache) Load(src string, sigmaNames []string, opt machine.Options) (*Compiled, error) {
	return load(context.Background(), t, singleKind, src, sigmaNames, opt)
}

// LoadCtx is Load under request-path observability: the lookup runs as a
// "cache.lookup" phase whose span records the satisfying tier (and joins the
// request's trace when ctx carries one), and the
// extract_tiered_load_total{tier=…} counter attributes load traffic per
// tier. The tier also fills any note slot installed by WithTierNote.
func (t *TieredCache) LoadCtx(ctx context.Context, src string, sigmaNames []string, opt machine.Options) (*Compiled, error) {
	return load(ctx, t, singleKind, src, sigmaNames, opt)
}

// LoadTuple is Load for a persisted k-ary tuple expression.
func (t *TieredCache) LoadTuple(src string, sigmaNames []string, opt machine.Options) (*CompiledTuple, error) {
	return load(context.Background(), t, tupleKind, src, sigmaNames, opt)
}

// LoadTupleCtx is LoadCtx for a persisted k-ary tuple expression.
func (t *TieredCache) LoadTupleCtx(ctx context.Context, src string, sigmaNames []string, opt machine.Options) (*CompiledTuple, error) {
	return load(ctx, t, tupleKind, src, sigmaNames, opt)
}

// load is the one tiered load path. Joining another caller's in-flight
// compile counts as a memory hit, matching the memory tier's own hit
// accounting.
func load[T artifact](ctx context.Context, t *TieredCache, k kind[T], src string, sigmaNames []string, opt machine.Options) (T, error) {
	ctx, ph := obs.StartPhase(ctx, "cache.lookup")
	tier := TierMemory
	key, err := k.key(src, sigmaNames)
	var c T
	if err == nil {
		c, err = getOrCompile(t.mem, key, func() (T, error) {
			if t.disk != nil {
				if c, ok := diskGet(t.disk, k, key, src, sigmaNames, opt); ok {
					tier = TierDisk
					return c, nil
				}
			}
			tier = TierCompile
			c, err := k.compile(src, sigmaNames, opt)
			if err == nil && t.disk != nil {
				diskPut(t.disk, k, key, c) //nolint:errcheck // best-effort write-through
			}
			return c, err
		})
	}
	ph.Str("tier", tier)
	ph.Fail(err)
	ph.Count(obs.WithLabels("extract_tiered_load_total", "tier", tier), 1)
	ph.End()
	if slot, ok := ctx.Value(tierNoteKey{}).(*string); ok {
		*slot = tier
	}
	return c, err
}

type tierNoteKey struct{}

// WithTierNote returns a context carrying a slot that LoadCtx and
// LoadTupleCtx fill with the tier that satisfied the load — how a caller
// several layers above the cache (serve's wide request events) learns where
// a registration's compile went without threading a return value through
// the wrapper loaders.
func WithTierNote(ctx context.Context) (context.Context, *string) {
	slot := new(string)
	return context.WithValue(ctx, tierNoteKey{}, slot), slot
}

// Stats returns the memory tier's counters (the tier requests hit first);
// use Disk().Stats() for the disk tier.
func (t *TieredCache) Stats() CacheStats { return t.mem.Stats() }

// FlushMem evicts every artifact of either kind from the memory tier,
// reporting how many were dropped. The disk tier is untouched, so the next
// load of a flushed key decodes from disk instead of recompiling — the
// restart-shaped cold path, exercisable without a restart.
func (t *TieredCache) FlushMem() int { return t.mem.Flush() }
