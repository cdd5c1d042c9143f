package seqfuzz

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/codec"
	"resilex/internal/extract"
	"resilex/internal/serve"
	"resilex/internal/spanner"
	"resilex/internal/wrapper"
)

// slot is one occupied version slot of the reference registry model: which
// pool payload holds it and the version number the server must have
// assigned it.
type slot struct {
	payload int
	version uint64
}

// modelKey mirrors serve's per-key version state machine: the monotone
// counter, the three slots, the tombstone flag and the last rollout
// outcome. An entry exists exactly when a successful registration (or the
// deletion of one) has happened — the same rule serve creates state under.
type modelKey struct {
	lastVersion uint64
	active      *slot
	canary      *slot
	prior       *slot
	deleted     bool
	lastOutcome string
}

// World is one interpreted sequence's live state: the server under test,
// its cache directory (survives restarts within the sequence), the
// reference registry model, and the lazily booted in-process cluster.
type World struct {
	pool  *opPool
	dir   string
	srv   *serve.Server
	model map[string]*modelKey
	cl    *clusterWorld
}

// Run interprets data as an op sequence against a fresh world and fails t
// on the first invariant violation. This is the whole fuzz target.
func Run(t *testing.T, data []byte) {
	ops := DecodeOps(data)
	if len(ops) == 0 {
		return
	}
	w := &World{pool: getPool(), dir: t.TempDir(), model: map[string]*modelKey{}}
	w.srv = w.newServer(t)
	defer w.Close()
	for i, op := range ops {
		opExec[op.Kind].Add(1)
		w.step(t, i, op)
		w.checkRegistry(t, i, op)
	}
}

// Close tears down the lazily booted cluster sub-world, if any.
func (w *World) Close() {
	if w.cl != nil {
		w.cl.Close()
	}
}

// newServer boots the server under test over the world's cache directory.
// CanaryFraction 1 selects stride 1 — every request for a canaried key
// routes to the canary (with in-request fallback to active on a miss), so
// batch expectations are exactly computable instead of sampled.
func (w *World) newServer(t *testing.T) *serve.Server {
	s, err := serve.New(serve.Config{
		CacheDir:       w.dir,
		CacheCap:       4, // small enough that sequences force natural LRU evictions
		DiskCap:        -1,
		CanaryFraction: 1,
		Options:        opt(),
		Batch:          wrapper.BatchOptions{Workers: 2},
		RestoreLog:     io.Discard,
	})
	if err != nil {
		t.Fatalf("booting server: %v", err)
	}
	return s
}

func (w *World) key(sel byte) string { return w.pool.keys[int(sel)%len(w.pool.keys)] }
func (w *World) payload(sel byte) (int, *payloadSpec) {
	i := int(sel) % len(w.pool.payloads)
	return i, w.pool.payloads[i]
}
func (w *World) validPayload(sel byte) (int, *payloadSpec) {
	i := int(sel) % w.pool.nValid
	return i, w.pool.payloads[i]
}
func (w *World) doc(sel byte) int { return int(sel) % len(w.pool.docs) }

func (w *World) step(t *testing.T, i int, op Op) {
	ctx := context.Background()
	key := w.key(op.A)
	docIdx := w.doc(op.C)
	switch op.Kind {
	case OpCompileEager:
		w.compileEager(t, i, op)
	case OpCompileStream:
		w.compileStream(t, i, op)

	case OpPut:
		pi, spec := w.payload(op.B)
		v, err := w.srv.PutWrapper(ctx, key, spec.data)
		if !spec.valid {
			if c := classOf(err); c != "malformed" {
				t.Fatalf("op %d put %s invalid payload: class %q, want malformed", i, key, c)
			}
			return
		}
		if err != nil {
			t.Fatalf("op %d put %s: %v", i, key, err)
		}
		mk := w.ensure(key)
		mk.lastVersion++
		if v != mk.lastVersion {
			t.Fatalf("op %d put %s: version %d, want %d", i, key, v, mk.lastVersion)
		}
		mk.prior, mk.active, mk.canary = mk.active, &slot{pi, v}, nil
		mk.deleted = false
		w.checkMaterialized(t, i, key, docIdx)

	case OpCanaryPut:
		pi, spec := w.payload(op.B)
		mk := w.model[key]
		v, err := w.srv.DeployCanary(key, spec.data)
		switch {
		case !spec.valid:
			if c := classOf(err); c != "malformed" {
				t.Fatalf("op %d canary %s invalid payload: class %q, want malformed", i, key, c)
			}
		case mk == nil || mk.active == nil:
			if err == nil {
				t.Fatalf("op %d canary %s: staged with no active version", i, key)
			}
		default:
			if err != nil {
				t.Fatalf("op %d canary %s: %v", i, key, err)
			}
			mk.lastVersion++
			if v != mk.lastVersion {
				t.Fatalf("op %d canary %s: version %d, want %d", i, key, v, mk.lastVersion)
			}
			mk.canary = &slot{pi, v}
		}
		w.checkBatch(t, i, key, docIdx)

	case OpPromote:
		mk := w.model[key]
		err := w.srv.Promote(key, 0)
		if mk == nil || mk.canary == nil {
			if err == nil {
				t.Fatalf("op %d promote %s: succeeded with no staged canary", i, key)
			}
			return
		}
		if err != nil {
			t.Fatalf("op %d promote %s: %v", i, key, err)
		}
		mk.prior, mk.active, mk.canary = mk.active, mk.canary, nil
		mk.lastOutcome = "promoted"
		w.checkMaterialized(t, i, key, docIdx)

	case OpRollback:
		mk := w.model[key]
		err := w.srv.Rollback(key, 0)
		switch {
		case mk != nil && mk.canary != nil:
			if err != nil {
				t.Fatalf("op %d rollback %s: %v", i, key, err)
			}
			mk.canary = nil
			mk.lastOutcome = "rolled-back"
		case mk != nil && mk.prior != nil && mk.active != nil:
			if err != nil {
				t.Fatalf("op %d rollback %s (to prior): %v", i, key, err)
			}
			mk.active, mk.prior = mk.prior, nil
			mk.lastOutcome = "rolled-back"
		default:
			if err == nil {
				t.Fatalf("op %d rollback %s: succeeded with nothing to roll back", i, key)
			}
		}
		w.checkMaterialized(t, i, key, docIdx)

	case OpDelete:
		mk := w.model[key]
		wantKnown := mk != nil && mk.active != nil
		if known := w.srv.DeleteWrapper(key); known != wantKnown {
			t.Fatalf("op %d delete %s: known=%v, model says %v", i, key, known, wantKnown)
		}
		if wantKnown {
			mk.lastVersion++
			mk.active, mk.canary, mk.prior = nil, nil, nil
			mk.deleted = true
		}
		w.checkMaterialized(t, i, key, docIdx)

	case OpExtract:
		w.checkMaterialized(t, i, key, docIdx)
	case OpExtractStream:
		w.checkStreaming(t, i, key, docIdx)
	case OpExtractBatch:
		w.checkBatch(t, i, key, docIdx)

	case OpCacheEvict:
		w.srv.Cache().FlushMem()
		// The next load must come back identical through the disk tier (or a
		// recompile) — prove it on the spot.
		w.checkMaterialized(t, i, key, docIdx)

	case OpCodecRoundTrip:
		w.codecRoundTrip(t, i, op)

	case OpRestart:
		// Everything — registrations, tombstones, an in-flight canary — must
		// survive a restart from the same cache directory. The registry
		// agreement check after the step compares all keys.
		w.srv = w.newServer(t)
		w.checkMaterialized(t, i, key, docIdx)
		w.checkBatch(t, i, key, docIdx)

	case OpClusterPut, OpClusterExtract, OpShardKill:
		w.clusterStep(t, i, op)

	case OpTupleSpanner:
		w.tupleSpanner(t, i, op)
	}
}

// tupleSpanner differentials the one-pass k-ary spanner against the naive
// k-nested oracle on one pool document — compiled straight from the
// pooled artifact, or from a tuple-artifact encode→decode round trip when
// the mode bit selects it. The full vector enumeration must agree.
func (w *World) tupleSpanner(t *testing.T, i int, op Op) {
	spec := w.pool.tuples[int(op.B)%len(w.pool.tuples)]
	docIdx := w.doc(op.C)
	tup := spec.comp.Tuple
	mode := "direct"
	if op.A%2 == 1 {
		mode = "roundtrip"
		blob, err := extract.EncodeTupleArtifact(spec.comp)
		if err != nil {
			t.Fatalf("op %d: encoding tuple artifact %q: %v", i, spec.src, err)
		}
		dec, err := extract.DecodeTupleArtifact(blob, opt())
		if err != nil {
			t.Fatalf("op %d: decoding tuple artifact %q: %v", i, spec.src, err)
		}
		tup = dec.Tuple
	}
	prog, err := spanner.Compile(tup, opt())
	if err != nil {
		t.Fatalf("op %d: tuple spanner compile (%s) %q: %v", i, mode, spec.src, err)
	}
	m, err := prog.Run(spec.words[docIdx])
	if err != nil {
		t.Fatalf("op %d: tuple spanner run (%s) %q doc %d: %v", i, mode, spec.src, docIdx, err)
	}
	got, err := m.All()
	if err != nil {
		t.Fatalf("op %d: tuple spanner enumerate (%s) %q doc %d: %v", i, mode, spec.src, docIdx, err)
	}
	if !reflect.DeepEqual(got, spec.want[docIdx]) {
		t.Fatalf("op %d: tuple spanner (%s) %q doc %d: vectors %v, oracle %v",
			i, mode, spec.src, docIdx, got, spec.want[docIdx])
	}
}

func (w *World) ensure(key string) *modelKey {
	mk := w.model[key]
	if mk == nil {
		mk = &modelKey{}
		w.model[key] = mk
	}
	return mk
}

// checkRegistry compares the server's versioned-registry state for every
// pool key against the model — after every op, so a divergence is caught at
// the op that introduced it, not sequences later.
func (w *World) checkRegistry(t *testing.T, i int, op Op) {
	for _, key := range w.pool.keys {
		got, ok := w.srv.VersionState(key)
		mk := w.model[key]
		if (mk != nil) != ok {
			t.Fatalf("op %d (%v): registry entry for %s: exists=%v, model says %v", i, op.Kind, key, ok, mk != nil)
		}
		if mk == nil {
			continue
		}
		want := serve.VersionState{
			LastVersion: mk.lastVersion,
			Deleted:     mk.deleted,
			LastOutcome: mk.lastOutcome,
		}
		if mk.active != nil {
			want.Active = mk.active.version
		}
		if mk.canary != nil {
			want.Canary = mk.canary.version
		}
		if mk.prior != nil {
			want.Prior = mk.prior.version
		}
		if got != want {
			t.Fatalf("op %d (%v): registry state for %s = %+v, model wants %+v", i, op.Kind, key, got, want)
		}
	}
}

// checkMaterialized cross-checks the single-document materialized path: the
// key must serve a wrapper exactly when the model has an active version,
// and its extraction must agree with the reference answer region-for-region.
func (w *World) checkMaterialized(t *testing.T, i int, key string, docIdx int) {
	mk := w.model[key]
	wantActive := mk != nil && mk.active != nil
	wr, _ := w.srv.Active(key).(*wrapper.Wrapper)
	if (wr != nil) != wantActive {
		t.Fatalf("op %d: server serves %s=%v, model says active=%v", i, key, wr != nil, wantActive)
	}
	if !wantActive {
		return
	}
	ref := w.pool.payloads[mk.active.payload].docs[docIdx]
	reg, err := wr.Extract(w.pool.docs[docIdx])
	if c := classOf(err); c != ref.class {
		t.Fatalf("op %d: materialized extract %s doc %d: class %q, reference %q", i, key, docIdx, c, ref.class)
	}
	if err == nil && reg != ref.region {
		t.Fatalf("op %d: materialized extract %s doc %d: region %+v, reference %+v", i, key, docIdx, reg, ref.region)
	}
}

// checkStreaming cross-checks the one-pass streaming path against the same
// reference. Streaming serves the active version only (canaries never see
// streamed traffic), and every valid payload must stream.
func (w *World) checkStreaming(t *testing.T, i int, key string, docIdx int) {
	mk := w.model[key]
	if mk == nil || mk.active == nil {
		if w.srv.Active(key) != nil {
			t.Fatalf("op %d: server serves %s but model has no active version", i, key)
		}
		return
	}
	spec := w.pool.payloads[mk.active.payload]
	wr, _ := w.srv.Active(key).(*wrapper.Wrapper)
	if wr == nil {
		t.Fatalf("op %d: server lost %s (model active v%d)", i, key, mk.active.version)
	}
	se, _ := wr.Stream() // built with the wrapper; never an error
	ref := spec.docs[docIdx]
	reg, err := se.ExtractReader(context.Background(), strings.NewReader(w.pool.docs[docIdx]))
	if c := classOf(err); c != ref.class {
		t.Fatalf("op %d: streaming extract %s doc %d: class %q, reference %q", i, key, docIdx, c, ref.class)
	}
	if err == nil && reg != ref.region {
		t.Fatalf("op %d: streaming extract %s doc %d: region %+v, reference %+v", i, key, docIdx, reg, ref.region)
	}
}

// expectedServe computes what the canary-aware batch path must return for
// one document of one key under stride-1 routing: the canary's reference
// answer when one is staged and it extracts, the active version's answer
// otherwise (in-request fallback), and the unknown-key class without an
// active version.
func (w *World) expectedServe(mk *modelKey, docIdx int) (string, wrapper.Region) {
	if mk == nil || mk.active == nil {
		return "unknown_key", wrapper.Region{}
	}
	if mk.canary != nil {
		if ref := w.pool.payloads[mk.canary.payload].docs[docIdx]; ref.class == "ok" {
			return ref.class, ref.region
		}
	}
	ref := w.pool.payloads[mk.active.payload].docs[docIdx]
	return ref.class, ref.region
}

// checkBatch cross-checks the batch path — the surface canary routing lives
// on. Two documents exercise the worker pool without widening expectations.
func (w *World) checkBatch(t *testing.T, i int, key string, docIdx int) {
	mk := w.model[key]
	docs := []wrapper.BatchDoc{
		{Key: key, HTML: w.pool.docs[docIdx]},
		{Key: key, HTML: w.pool.docs[0]},
	}
	results := w.srv.ExtractBatch(context.Background(), docs)
	if len(results) != len(docs) {
		t.Fatalf("op %d: batch for %s: %d results, want %d", i, key, len(results), len(docs))
	}
	for ri, di := range []int{docIdx, 0} {
		wantClass, wantRegion := w.expectedServe(mk, di)
		res := results[ri]
		if res.Index != ri || res.Key != key {
			t.Fatalf("op %d: batch result %d mislabelled: %+v", i, ri, res)
		}
		if c := classOf(res.Err); c != wantClass {
			t.Fatalf("op %d: batch %s doc %d: class %q, model wants %q", i, key, di, c, wantClass)
		}
		if res.Err == nil && res.Region != wantRegion {
			t.Fatalf("op %d: batch %s doc %d: region %+v, model wants %+v", i, key, di, res.Region, wantRegion)
		}
	}
}

// compileEager freshly compiles a pooled expression from source — a cold
// parse + determinize + minimize, no cache in the loop — and checks its
// full answer set against the precompiled reference on one document.
func (w *World) compileEager(t *testing.T, i int, op Op) {
	_, spec := w.validPayload(op.B)
	docIdx := w.doc(op.C)
	c2, err := extract.CompileArtifact(spec.src, spec.sigma, opt())
	if err != nil {
		t.Fatalf("op %d: fresh eager compile: %v", i, err)
	}
	// Tokenize against the fresh artifact's own table; positions are
	// table-independent, so the answer sets compare directly.
	doc := spec.mapper(c2.Tab).Map(w.pool.docs[docIdx])
	ref := spec.docs[docIdx]
	if got := c2.Matcher.All(doc.Syms); !equalInts(got, ref.all) {
		t.Fatalf("op %d: fresh eager All = %v, reference %v", i, got, ref.all)
	}
	pos, ok := c2.Matcher.Find(doc.Syms)
	if ok != ref.findOK || (ok && pos != ref.findPos) {
		t.Fatalf("op %d: fresh eager Find = (%d,%v), reference (%d,%v)", i, pos, ok, ref.findPos, ref.findOK)
	}
}

// compileStream differentials the one-pass streaming matcher against the
// eager reference on one document.
func (w *World) compileStream(t *testing.T, i int, op Op) {
	_, spec := w.validPayload(op.B)
	ref := spec.docs[w.doc(op.C)]
	sm, err := spec.compiled.Expr.CompileStream()
	if err != nil {
		t.Fatalf("op %d: stream compile: %v", i, err)
	}
	pos, ok := sm.Find(ref.syms)
	if ok != ref.findOK || (ok && pos != ref.findPos) {
		t.Fatalf("op %d: stream Find = (%d,%v), reference (%d,%v)", i, pos, ok, ref.findPos, ref.findOK)
	}
}

// codecRoundTrip exercises the persistence substrate: an artifact
// encode→decode round trip must reproduce the matcher's answers, a
// corrupted blob must be rejected in the malformed-input class, and a
// cluster op frame must survive its wire round trip field-for-field.
func (w *World) codecRoundTrip(t *testing.T, i int, op Op) {
	_, spec := w.validPayload(op.B)
	blob, err := extract.EncodeArtifact(spec.compiled)
	if err != nil {
		t.Fatalf("op %d: encoding artifact: %v", i, err)
	}
	switch op.C % 3 {
	case 0:
		dec, err := extract.DecodeArtifact(blob, opt())
		if err != nil {
			t.Fatalf("op %d: decoding artifact: %v", i, err)
		}
		ref := spec.docs[w.doc(op.A)]
		if got := dec.Matcher.All(ref.syms); !equalInts(got, ref.all) {
			t.Fatalf("op %d: decoded artifact All = %v, reference %v", i, got, ref.all)
		}
	case 1:
		// A single corrupted byte anywhere in the frame — header, payload or
		// checksum — must classify as malformed, never decode differently.
		corrupt := append([]byte(nil), blob...)
		corrupt[int(op.A)%len(corrupt)] ^= 0x5a
		if _, err := extract.DecodeArtifact(corrupt, opt()); !errors.Is(err, codec.ErrMalformedInput) {
			t.Fatalf("op %d: corrupted artifact decoded: err=%v", i, err)
		}
	case 2:
		in := cluster.Op{Kind: cluster.OpPut, Key: w.key(op.A), Payload: spec.data, Version: uint64(op.A) + 1}
		out, err := cluster.DecodeOp(cluster.EncodeOp(in))
		if err != nil {
			t.Fatalf("op %d: op frame round trip: %v", i, err)
		}
		if out.Kind != in.Kind || out.Key != in.Key || out.Version != in.Version || string(out.Payload) != string(in.Payload) {
			t.Fatalf("op %d: op frame round trip: got %+v, want %+v", i, out, in)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
