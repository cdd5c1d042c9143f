package seqfuzz

import (
	"fmt"
	"sync/atomic"
)

// OpKind enumerates the interpreted API operations. The byte decoder maps
// arbitrary input onto this vocabulary, so every kind is reachable from
// fuzz bytes; keep the order stable — seed corpus files encode kinds by
// value.
type OpKind byte

const (
	// OpCompileEager freshly compiles a pooled expression through
	// CompileArtifact (parse → determinize → minimize → two-scan matcher)
	// and differentials its All/Find answers against the precompiled
	// reference.
	OpCompileEager OpKind = iota
	// OpCompileStream compiles the one-pass streaming matcher and
	// differentials it against the eager reference.
	OpCompileStream
	// OpPut registers a pooled payload as the key's active version through
	// the server's put path (cache, registry, version bump).
	OpPut
	// OpCanaryPut stages a pooled payload as the key's canary version.
	OpCanaryPut
	// OpPromote promotes the staged canary.
	OpPromote
	// OpRollback rolls back the staged canary, or reverts a promote.
	OpRollback
	// OpDelete removes the key, writing a versioned tombstone.
	OpDelete
	// OpExtract runs the single-document materialized path on the active
	// version.
	OpExtract
	// OpExtractStream runs the one-pass streaming path on the active
	// version.
	OpExtractStream
	// OpExtractBatch runs the canary-aware batch path.
	OpExtractBatch
	// OpCacheEvict evicts one content address from — or flushes — the
	// server's in-memory artifact cache, forcing the next load through the
	// disk tier or a recompile.
	OpCacheEvict
	// OpCodecRoundTrip encodes a compiled artifact (or a cluster op frame)
	// and decodes it back, checking equivalence — or, for a corrupted blob,
	// that the decoder rejects it in the malformed-input class.
	OpCodecRoundTrip
	// OpRestart replaces the server with a fresh one restored from the same
	// cache directory — registrations, tombstones and an in-flight canary
	// must all survive.
	OpRestart
	// OpClusterPut registers a pooled payload through the in-process
	// cluster router (replicated to the key's owners).
	OpClusterPut
	// OpClusterExtract extracts through the router — owner placement plus
	// failover when a shard has been killed.
	OpClusterExtract
	// OpShardKill kills one in-process shard without telling the router.
	// At most one shard dies per sequence (R=2 keeps every key servable);
	// later kill ops reinterpret as cluster extracts.
	OpShardKill
	// OpTupleSpanner compiles a pooled k-ary tuple expression into the
	// one-pass multi-split spanner — directly, or through a tuple-artifact
	// encode→decode round trip — and differentials its full vector
	// enumeration against the naive k-nested oracle.
	OpTupleSpanner

	opCount // number of kinds; keep last
)

// String names the kind. Hyphenated, not snake_case: these are display
// labels, and snake_case would collide with the metric-name namespace the
// metrics lint reserves for the obs registry.
func (k OpKind) String() string {
	names := [...]string{
		"compile-eager", "compile-stream",
		"put", "canary-put", "promote", "rollback", "delete",
		"extract", "extract-stream", "extract-batch",
		"cache-evict", "codec-roundtrip", "restart",
		"cluster-put", "cluster-extract", "shard-kill",
		"tuple-spanner",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one decoded operation: the kind plus three operand selectors the
// step maps onto the fixed pools (key, payload, document). Selectors are
// raw bytes — each consumer reduces them modulo its pool size, so every
// byte value is meaningful and mutation never produces an invalid op.
type Op struct {
	Kind OpKind
	A    byte // key selector
	B    byte // payload selector
	C    byte // document selector
}

// maxOps bounds a sequence: long enough for deep interleavings
// (evict → restart → canary → kill → promote …), short enough that one
// input executes in milliseconds.
const maxOps = 48

// opBytes is the fixed encoding width of one op.
const opBytes = 4

// DecodeOps decodes fuzz bytes into a bounded op sequence. The encoding is
// fixed-width — kind byte (mod the number of kinds) plus three operand
// bytes — so the mapping is total: every input decodes, every mutation of
// an input decodes, and a trailing partial op is simply dropped.
// Deterministic by construction; the same bytes always replay the same
// sequence.
func DecodeOps(data []byte) []Op {
	n := len(data) / opBytes
	if n > maxOps {
		n = maxOps
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*opBytes : (i+1)*opBytes]
		ops = append(ops, Op{
			Kind: OpKind(b[0] % byte(opCount)),
			A:    b[1],
			B:    b[2],
			C:    b[3],
		})
	}
	return ops
}

// EncodeOps is DecodeOps' inverse over whole ops — the seed-corpus
// generator and the coverage test build inputs with it.
func EncodeOps(ops []Op) []byte {
	out := make([]byte, 0, len(ops)*opBytes)
	for _, op := range ops {
		out = append(out, byte(op.Kind), op.A, op.B, op.C)
	}
	return out
}

// opExec counts executed ops per kind across every Run in the process —
// the coverage ledger TestOpCoverage asserts over, and the quickest triage
// signal for "which ops did this crasher actually reach".
var opExec [opCount]atomic.Uint64

// Coverage snapshots the per-kind execution counts accumulated so far.
func Coverage() map[OpKind]uint64 {
	out := make(map[OpKind]uint64, opCount)
	for k := OpKind(0); k < opCount; k++ {
		out[k] = opExec[k].Load()
	}
	return out
}
