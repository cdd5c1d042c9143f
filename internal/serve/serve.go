// Package serve is the embeddable core of cmd/serve: the HTTP serving path
// over a key table holding one compiled wrapper of either kind
// (single-pivot or k-ary tuple) per key — batch extraction on a worker
// pool, the stream and tuples page routes (one key lookup: 404 for an
// unknown key, 422 for a key of the other kind), wrapper registration
// through the tiered compiled-artifact cache, a persistent registry so
// registrations (and deletions) survive restarts, and the cluster apply
// endpoint that lets a shard receive replicated wrapper operations from a
// cluster router.
//
// It exists as a library so the cluster benchmark and tests can boot real
// in-process shards; cmd/serve is a thin flag-parsing wrapper around it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/codec"
	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// Config assembles a Server. The zero value is a memory-only server with
// default limits.
type Config struct {
	// CacheDir, when set, adds the persistent tier: compiled artifacts
	// under CacheDir/artifacts and the wrapper registry under
	// CacheDir/wrappers, both restored at startup.
	CacheDir string
	// CacheCap is the in-memory compiled-artifact cache capacity, bounding
	// single-pivot and tuple artifacts together.
	CacheCap int
	// DiskCap is the on-disk artifact capacity (-1 = unbounded, 0 = none).
	DiskCap int
	// FleetData, when non-nil, is a persisted fleet (deploy file) loaded
	// before the registry restore, so runtime registrations override it.
	FleetData []byte
	// MaxBodyBytes bounds request bodies; 0 selects cluster.DefaultMaxBody
	// (64 MiB).
	MaxBodyBytes int64
	// Observer receives all serving telemetry. nil disables observation.
	Observer *obs.Observer
	// Options is the construction budget for wrapper compilation.
	Options machine.Options
	// Batch tunes POST /extract's worker pool.
	Batch wrapper.BatchOptions
	// CanaryFraction is the fraction of a key's traffic routed to its staged
	// canary version (stride-based, deterministic). 0 selects the default
	// 0.25; the value is clamped to (0, 1].
	CanaryFraction float64
	// WideEventSample emits one wide request event (trace ID, doc bytes,
	// serving rung, phase micros, result count) through the observer's
	// Logger for every Nth request of each surface: batch, stream and
	// tuples extraction and wrapper PUTs count apart. 0 selects 1 (every
	// request); events are only emitted when a Logger is installed.
	WideEventSample int
	// RestoreLog receives the one-line registry-restore summary printed at
	// startup. nil selects os.Stderr; harnesses that boot servers in a loop
	// (the API-sequence fuzzer restarts one per op) pass io.Discard.
	RestoreLog io.Writer
}

// Server is the HTTP serving path: a key table holding each key's compiled
// wrappers beside its persisted version record, the tiered compiled-artifact
// cache behind wrapper registration (memory always, disk when CacheDir is
// set), the registry that persists registrations across restarts, and the
// observer all request work reports into. It is constructed once and shared
// by every request goroutine. The key table is under one lock: apply, its
// only writer, takes it for writing, and every reader for reading; the
// compiled wrappers it hands out are immutable. Cache and registry are
// concurrency-safe, the rest is read-only.
//
// Each key holds one wrapper of either kind — single-pivot or k-ary tuple —
// and both kinds share the registry, version state machine and replication
// path; only the serving surface differs (POST /extract and
// /extract/stream/{key} for single-pivot keys, POST /extract/tuples/{key}
// for tuple keys).
type Server struct {
	cache    *extract.TieredCache
	registry *wrapperRegistry // nil without CacheDir
	obs      *obs.Observer
	opt      machine.Options
	batch    wrapper.BatchOptions
	maxBody  int64
	stride   uint64 // one of every stride requests of a canaried key runs the canary

	mu   sync.RWMutex
	keys map[string]*keyVersions

	// Wide-event sampling: every wideEvery-th request of each surface emits
	// one wide event through the observer's Logger.
	wideEvery uint64
	wideN     [wideSurfaces]atomic.Uint64
}

// New assembles the serving stack. With Config.CacheDir empty the server is
// memory-only. With a directory it gains the two persistent pieces and
// restores every previously registered wrapper — and applies every
// persisted deletion tombstone — before taking traffic, warm-starting from
// disk instead of recompiling.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = cluster.DefaultMaxBody
	}
	mem := extract.NewCache(cfg.CacheCap, cfg.Observer)
	var disk *extract.DiskCache
	var reg *wrapperRegistry
	if cfg.CacheDir != "" {
		var err error
		if disk, err = extract.NewDiskCache(filepath.Join(cfg.CacheDir, "artifacts"), cfg.DiskCap, cfg.Observer); err != nil {
			return nil, err
		}
		if reg, err = newWrapperRegistry(filepath.Join(cfg.CacheDir, "wrappers")); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cache:     extract.NewTieredCache(mem, disk),
		registry:  reg,
		obs:       cfg.Observer,
		opt:       cfg.Options,
		batch:     cfg.Batch,
		maxBody:   cfg.MaxBodyBytes,
		stride:    canaryStride(cfg.CanaryFraction),
		keys:      map[string]*keyVersions{},
		wideEvery: uint64(max(cfg.WideEventSample, 1)),
	}
	if cfg.FleetData != nil {
		fleet, err := wrapper.LoadFleetCached(cfg.FleetData, cfg.Options, s.cache)
		if err != nil {
			return nil, err
		}
		for _, key := range fleet.Keys() {
			s.entry(key).active = fleet.Lookup(key)
		}
	}
	restored, deleted, skipped := s.restoreRegistry()
	if restored+deleted+skipped > 0 {
		logw := cfg.RestoreLog
		if logw == nil {
			logw = os.Stderr
		}
		fmt.Fprintf(logw, "serve: restored %d wrapper(s) from %s (%d deleted, %d skipped)\n",
			restored, cfg.CacheDir, deleted, skipped)
	}
	return s, nil
}

// restoreRegistry replays the persisted version state: each record becomes
// its key's record as is. An active version of either kind compiles into
// the key's entry (overriding a same-key wrapper from the deploy-time fleet
// file), an in-flight canary is re-staged with a fresh observation window,
// and a tombstone clears what the key serves while keeping its monotone
// version counter. A payload that no longer compiles is skipped and
// counted, not fatal: a canary is dropped, and an active version leaves
// only the counter behind, so the key serves what it served before the
// restore and its next write still numbers past every version it had.
//
// Reading and decoding the envelopes and loading their payloads run on
// wrapper.LoadAll's workers: of n envelopes, envelope i fills slot i with
// its active version and slot n+i with its canary, and whichever worker
// reaches the envelope first reads it for both. The results then apply in
// directory order, as a serial restore would. A canary loads beside its
// active version, so one whose active version fails is compiled and then
// dropped with the record.
func (s *Server) restoreRegistry() (restored, deleted, skipped int) {
	names := s.registry.list()
	n := len(names)
	envelopes := make([]func() (record, error), n)
	for i, name := range names {
		envelopes[i] = sync.OnceValues(func() (record, error) { return s.registry.read(name) })
	}
	ws, _ := wrapper.LoadAll(context.Background(), 2*n, func(i int) []byte {
		rec, err := envelopes[i%n]()
		slot := rec.Active
		if i >= n {
			slot = rec.Canary
		}
		if err != nil || rec.Deleted || slot == nil {
			return nil
		}
		return slot.Payload
	}, s.opt, s.cache)
	for i, envelope := range envelopes {
		rec, err := envelope()
		if err != nil {
			skipped++
			continue
		}
		kv := s.entry(rec.Key)
		kv.record = rec
		if rec.Deleted {
			kv.active = nil
			deleted++
			continue
		}
		// A slot's wrapper is nil when its payload failed to load or was
		// missing from the envelope.
		if rec.Active != nil {
			if ws[i] == nil {
				kv.record = record{Key: rec.Key, LastVersion: rec.LastVersion}
				skipped++
				continue
			}
			kv.active = ws[i]
		}
		if rec.Canary != nil {
			if kv.canary = ws[n+i]; kv.canary == nil {
				kv.Canary = nil
				skipped++
			}
		}
		s.gaugeVersions(rec.Key, kv)
		restored++
	}
	return restored, deleted, skipped
}

// Active returns the key's active compiled wrapper of either kind, or nil.
// Wrappers are immutable: a later write to the key replaces it in the key
// table and leaves the returned one intact.
func (s *Server) Active(key string) wrapper.Any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if kv := s.keys[key]; kv != nil {
		return kv.active
	}
	return nil
}

// Cache returns the tiered compiled-artifact cache.
func (s *Server) Cache() *extract.TieredCache { return s.cache }

// Mux mounts the serving routes on top of the observability endpoints
// (/metrics, /metrics.json, /debug/pprof — see obs.Handler), so one listen
// address serves both traffic and telemetry.
func (s *Server) Mux() *http.ServeMux {
	mux := obs.Handler(s.obs)
	mux.HandleFunc("POST /extract", s.handleExtract)
	mux.HandleFunc("POST /extract/stream/{key}", s.handleExtractStream)
	mux.HandleFunc("POST /extract/tuples/{key}", s.handleExtractTuples)
	for _, wr := range cluster.WriteRoutes {
		mux.HandleFunc(wr.Pattern, s.handleWrite(wr.Kind, "serve."+wr.Name))
	}
	mux.HandleFunc("GET /wrappers/{key}/versions", s.handleVersions)
	mux.HandleFunc("POST /cluster/apply", s.handleClusterApply)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// ServeUntilShutdown serves on ln until ctx is canceled, then drains
// in-flight requests for at most drain before forcing connections closed.
// It returns nil on a clean drain, the drain context's error if the
// deadline forced the stop, or the listener's error if serving failed
// before any shutdown was requested.
func ServeUntilShutdown(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener died on its own; nothing left to drain
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// extractRequest is the POST /extract body: a batch of documents, each
// naming the site wrapper to run.
type extractRequest struct {
	Docs []wrapper.BatchDoc `json:"docs"`
}

// extractResult is one element of the POST /extract response, in input
// order. OK distinguishes extraction success; on failure Error carries the
// classified cause and the region fields are absent.
type extractResult struct {
	Index      int    `json:"index"`
	Key        string `json:"key"`
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	TokenIndex int    `json:"tokenIndex,omitempty"`
	Start      int    `json:"start,omitempty"`
	End        int    `json:"end,omitempty"`
	Source     string `json:"source,omitempty"`
}

// reject answers a hardening rejection and counts it by reason, so an
// operator can tell a misbehaving client from an undersized limit.
func (s *Server) reject(w http.ResponseWriter, status int, reason string, err error) {
	s.obs.Counter(obs.WithLabels("serve_rejected_total", "reason", reason)).Inc()
	cluster.WriteError(w, status, err)
}

// refuse answers a request the shared front refused (see cluster.ReadBody),
// naming the limit when the body was too large.
func (s *Server) refuse(w http.ResponseWriter, rej *cluster.Rejection) {
	err := rej.Err
	if rej.Status == http.StatusRequestEntityTooLarge {
		err = fmt.Errorf("request body exceeds %d bytes", s.maxBody)
	}
	s.reject(w, rej.Status, rej.Reason, err)
}

// failStatus is the status of a request whose wrapper compile or extraction
// failed with err: 503 when a construction budget or deadline ran out — the
// same request may succeed later — and status otherwise.
func failStatus(err error, status int) int {
	if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
		return http.StatusServiceUnavailable
	}
	return status
}

// lookupPage resolves a page route's key (stream or tuples) to the key's
// active wrapper of kind W with one key-table lookup. An unregistered key is a
// 404 naming the route's noun; a key holding the other kind is a 422,
// counted under serve_rejected_total{reason="arity"} — so a client that
// mixes up its routes learns which mistake it made. ok=false means the
// response has been written.
func lookupPage[W wrapper.Any](s *Server, w http.ResponseWriter, key, noun string) (W, bool) {
	lw := s.Active(key)
	wr, ok := lw.(W)
	switch {
	case ok:
	case lw == nil:
		cluster.WriteError(w, http.StatusNotFound, fmt.Errorf("no %s registered for %q", noun, key))
	default:
		err := fmt.Errorf("wrapper %q is single-pivot; use POST /extract or /extract/stream/%s", key, key)
		if _, tuple := lw.(*wrapper.TupleWrapper); tuple {
			err = fmt.Errorf("wrapper %q is a k-ary tuple wrapper; use POST /extract/tuples/%s", key, key)
		}
		s.reject(w, http.StatusUnprocessableEntity, "arity", err)
	}
	return wr, ok
}

// wideSurface is a surface that emits wide events. Each samples on its own
// counter, so a busy surface cannot keep another's events unlogged.
type wideSurface int

const (
	wideRequest wideSurface = iota
	wideStream
	wideTuples
	widePut
	wideSurfaces
)

// wideNames are the surfaces' event names.
var wideNames = [wideSurfaces]string{
	wideRequest: "serve.request",
	wideStream:  "serve.stream_request",
	wideTuples:  "serve.tuples_request",
	widePut:     "serve.wrapper_put",
}

// wideEvent emits one sampled wide request event — the single log line that
// carries everything about a request — when a Logger is installed and the
// surface's sampling counter selects this request.
func (s *Server) wideEvent(surface wideSurface, kv ...any) {
	if s.obs == nil || s.obs.Log == nil {
		return
	}
	if (s.wideN[surface].Add(1)-1)%s.wideEvery != 0 {
		return
	}
	s.obs.Event(wideNames[surface], kv...)
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter("serve_requests_total").Inc()
	body, rej := cluster.ReadBody(w, r, "application/json", s.maxBody)
	if rej != nil {
		s.refuse(w, rej)
		return
	}
	docs, err := DecodeExtractRequest(body)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "decode", fmt.Errorf("decoding request: %w", err))
		return
	}
	docBytes := 0
	for _, d := range docs {
		docBytes += len(d.HTML)
	}
	ctx, tc := obs.JoinTrace(w, r, s.obs)
	ctx, sp := s.obs.StartSpan(ctx, "serve.extract")
	sp.SetAttr("docs", int64(len(docs)))
	sp.SetAttr("doc_bytes", int64(docBytes))
	start := time.Now()
	results, outcome := s.extractBatch(ctx, docs)
	elapsed := time.Since(start)
	out := struct {
		Results []extractResult `json:"results"`
	}{Results: make([]extractResult, len(results))}
	okCount := 0
	for i, res := range results {
		er := extractResult{Index: res.Index, Key: res.Key}
		if res.Err != nil {
			er.Error = res.Err.Error()
		} else {
			er.OK = true
			okCount++
			er.TokenIndex = res.Region.TokenIndex
			er.Start = res.Region.Span.Start
			er.End = res.Region.Span.End
			er.Source = res.Region.Source
		}
		out.Results[i] = er
	}
	sp.SetStr("rung", outcome.rung())
	sp.SetAttr("ok", int64(okCount))
	sp.End()
	s.obs.Histogram("serve_extract_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
	s.wideEvent(wideRequest,
		"trace", tc.TraceID,
		"docs", len(docs),
		"doc_bytes", docBytes,
		"ok", okCount,
		"rung", outcome.rung(),
		"version", outcome.version,
		"canary_docs", outcome.canaryDocs,
		"fallbacks", outcome.fallbacks,
		"duration_us", elapsed.Microseconds(),
	)
	cluster.WriteJSON(w, http.StatusOK, out)
}

// batchOutcome summarizes how a batch was served for the request span and
// wide event: how many documents the canary handled, how many canary misses
// fell back to the active version, and the active version of the first key.
type batchOutcome struct {
	canaryDocs int
	fallbacks  int
	version    uint64
}

// rung names the serving rung the batch landed on in the versioned
// registry: "active" (no canary in play), "canary" (some documents served
// by a staged canary), or "canary_fallback" (at least one canary miss was
// re-served by the active version).
func (bo batchOutcome) rung() string {
	switch {
	case bo.fallbacks > 0:
		return "canary_fallback"
	case bo.canaryDocs > 0:
		return "canary"
	default:
		return "active"
	}
}

// extractBatch is the canary-aware batch path: one pass of the batch pool.
// Every document is routed first, under one read lock of the key table, so
// a write landing mid-batch changes nothing already routed. A document of a
// key with a staged canary is stride-split — one of every stride such
// documents runs the canary, the rest the active version — and both
// outcomes feed the key's observation window. A canary miss falls back to
// the active wrapper inline, within the document's one DocTimeout: a bad
// canary degrades its own statistics (triggering rollback) but never fails
// a document the active version would have served.
func (s *Server) extractBatch(ctx context.Context, docs []wrapper.BatchDoc) ([]wrapper.BatchResult, batchOutcome) {
	type route struct {
		active, canary *wrapper.Wrapper // canary is nil unless the doc is canary-routed
		window         *keyVersions     // the key's, when it has a canary staged
	}
	var outcome batchOutcome
	routes := make([]route, len(docs))
	s.mu.RLock()
	for i, d := range docs {
		kv := s.keys[d.Key]
		if kv == nil {
			continue
		}
		if i == 0 {
			outcome.version = kv.Active.version()
		}
		rt := &routes[i]
		rt.active, _ = kv.active.(*wrapper.Wrapper)
		if canary, ok := kv.canary.(*wrapper.Wrapper); ok {
			rt.window = kv
			if (kv.rr.Add(1)-1)%s.stride == 0 {
				rt.canary = canary
				outcome.canaryDocs++
			}
		}
	}
	s.mu.RUnlock()

	var fallbacks atomic.Int64
	bctx, ph := obs.StartPhase(ctx, "serve.batch")
	ph.Attr("docs", int64(len(docs)))
	results := wrapper.RunBatch(bctx, docs, s.batch, func(ctx context.Context, i int) (wrapper.Region, error) {
		d, rt := docs[i], routes[i]
		if rt.canary != nil {
			cctx, cph := obs.StartPhase(ctx, "serve.canary")
			r, err := rt.canary.ExtractContext(cctx, d.HTML)
			cph.End()
			if err == nil {
				rt.window.stats.canaryOK.Add(1)
				s.obs.Counter(obs.WithLabels("refresh_canary_serve_total", "site", d.Key, "outcome", "ok")).Inc()
				return r, nil
			}
			rt.window.stats.canaryErr.Add(1)
			rt.window.stats.fallback.Add(1)
			fallbacks.Add(1)
			s.obs.Counter(obs.WithLabels("refresh_canary_serve_total", "site", d.Key, "outcome", "miss")).Inc()
			s.obs.Counter(obs.WithLabels("refresh_canary_fallback_total", "site", d.Key)).Inc()
			fctx, fph := obs.StartPhase(ctx, "serve.fallback")
			defer fph.End()
			ctx, rt.window = fctx, nil // the fallback is not an active-routed outcome
		}
		r, err := wrapper.Region{}, error(nil)
		if rt.active == nil {
			err = fmt.Errorf("%w: %q", wrapper.ErrUnknownKey, d.Key)
		} else {
			r, err = rt.active.ExtractContext(ctx, d.HTML)
		}
		if rt.window != nil {
			n, label := &rt.window.stats.activeOK, "ok"
			if err != nil {
				n, label = &rt.window.stats.activeErr, "miss"
			}
			n.Add(1)
			s.obs.Counter(obs.WithLabels("refresh_active_serve_total", "site", d.Key, "outcome", label)).Inc()
		}
		return r, err
	})
	ph.End()
	outcome.fallbacks = int(fallbacks.Load())
	return results, outcome
}

// handleWrite is the direct write handler of one kind: it turns the request
// into the op apply decides (see cluster.WriteOp). A canary immediately
// starts receiving the configured traffic fraction.
func (s *Server) handleWrite(kind cluster.OpKind, span string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.obs.Counter("serve_requests_total").Inc()
		op, rej := cluster.WriteOp(w, r, kind, s.maxBody)
		if rej != nil {
			s.refuse(w, rej)
			return
		}
		s.applyTraced(w, r, span, op)
	}
}

// handleClusterApply is the replication endpoint a cluster router fans
// wrapper mutations out to: one codec-framed, checksummed operation per
// request, applied exactly like the direct route of its kind. A body that
// is not an op frame at all is an unsupported media type; a frame that fails
// verification (torn write on the wire, version skew) is malformed input —
// distinguishable failure modes, both counted.
func (s *Server) handleClusterApply(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter("serve_requests_total").Inc()
	body, rej := cluster.ReadBody(w, r, cluster.OpContentType, s.maxBody)
	if rej != nil {
		s.refuse(w, rej)
		return
	}
	if !cluster.IsOpFrame(body) {
		s.reject(w, http.StatusUnsupportedMediaType, "content_type",
			errors.New("body is not a cluster op frame"))
		return
	}
	op, err := cluster.DecodeOp(body)
	if err != nil {
		reason := "malformed_frame"
		if errors.Is(err, codec.ErrVersionMismatch) {
			reason = "frame_version"
		}
		s.reject(w, http.StatusBadRequest, reason, err)
		return
	}
	s.obs.Counter(obs.WithLabels("serve_cluster_apply_total", "op", op.Kind.String())).Inc()
	s.applyTraced(w, r, "shard.apply", op)
}

// applyTraced runs one write under a span carrying its op kind and key
// (joining the caller's trace, echoed in X-Resilex-Trace) and writes the
// response: the write's body, or its error under the status apply chose.
func (s *Server) applyTraced(w http.ResponseWriter, r *http.Request, span string, op cluster.Op) {
	ctx, _ := obs.JoinTrace(w, r, s.obs)
	ctx, sp := s.obs.StartSpan(ctx, span)
	sp.SetStr("op", op.Kind.String())
	sp.SetStr("key", op.Key)
	res, err := s.apply(ctx, op)
	sp.SetError(err)
	sp.End()
	if err != nil {
		cluster.WriteError(w, res.status, err)
		return
	}
	cluster.WriteJSON(w, res.status, res)
}

// handleVersions reports the version state of one key — active/canary/prior
// versions, the monotone counter, the last rollout outcome, and the canary
// observation window — for rollout tooling and the refresh smoke to poll.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter("serve_requests_total").Inc()
	key := r.PathValue("key")
	vs, win, ok := s.snapshot(key)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, fmt.Errorf("no versions recorded for %q", key))
		return
	}
	body := map[string]any{
		"key":         key,
		"lastVersion": vs.LastVersion,
		"deleted":     vs.Deleted,
		"lastOutcome": vs.LastOutcome,
		"stats":       win,
	}
	for slot, v := range map[string]uint64{"active": vs.Active, "canary": vs.Canary, "prior": vs.Prior} {
		if v != 0 {
			body[slot] = map[string]uint64{"version": v}
		}
	}
	cluster.WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	body := map[string]any{
		"status": "ok",
		"sites":  len(s.Sites()),
		"cache": map[string]any{
			"entries":   st.Entries,
			"hits":      st.Hits,
			"misses":    st.Misses,
			"evictions": st.Evictions,
			"hitRate":   st.HitRate(),
		},
	}
	if disk := s.cache.Disk(); disk != nil {
		ds := disk.Stats()
		body["diskCache"] = map[string]any{
			"dir":       disk.Dir(),
			"entries":   ds.Entries,
			"hits":      ds.Hits,
			"misses":    ds.Misses,
			"evictions": ds.Evictions,
			"corrupt":   ds.Corrupt,
		}
	}
	cluster.WriteJSON(w, http.StatusOK, body)
}
