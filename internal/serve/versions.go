package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"

	"resilex/internal/cluster"
	"resilex/internal/extract"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// The per-key version state machine behind the continuous-refresh pipeline.
// Every key carries a monotone version counter; each mutation — put, delete,
// canary, promote, rollback — assigns or consumes versions from it, so the
// ordering of operations is recoverable from disk after a restart and a
// DELETE followed by a re-PUT resurrects the key with a strictly higher
// version instead of staying tombstoned. All five are decided in apply,
// whichever entry point — direct route, replicated op or in-process seam —
// they arrive through.
//
// Lifecycle of a refresh: a canary version is staged next to the active one
// and receives a configured fraction of the key's traffic (stride-routed, so
// the split is deterministic, not sampled). A canary miss falls back to the
// active wrapper within the same request — the canary can degrade quality
// statistics but never loses a request. Promotion swaps canary→active and
// keeps the old active as the prior version; rollback discards the canary
// (or, after a promotion, reverts to the prior version).

// versionedWrapper is one immutable registered wrapper version: the raw
// persisted JSON plus the version number it was assigned.
type versionedWrapper struct {
	Version uint64          `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// version is the slot's version number; 0 for an empty slot.
func (v *versionedWrapper) version() uint64 {
	if v == nil {
		return 0
	}
	return v.Version
}

// record is the version state of one key, held in memory exactly as the
// registry persists it: the newest line of the key's registry file (see
// registry.go).
type record struct {
	Key string `json:"key"`
	// Wrapper is the legacy unversioned payload slot of envelopes written
	// before versioning; load turns it into active version 1.
	Wrapper     json.RawMessage   `json:"wrapper,omitempty"`
	Deleted     bool              `json:"deleted,omitempty"`
	LastVersion uint64            `json:"lastVersion,omitempty"`
	Active      *versionedWrapper `json:"active,omitempty"`
	Canary      *versionedWrapper `json:"canary,omitempty"`
	Prior       *versionedWrapper `json:"prior,omitempty"`
	// LastOutcome records how the most recent canary concluded: "promoted"
	// or "rolled-back" ("" while none has concluded). Exposed on the
	// versions endpoint so rollout tooling can poll for a verdict.
	LastOutcome string `json:"lastOutcome,omitempty"`
}

// canaryStats is the sliding observation window opened at canary deploy
// time: extraction outcomes on the canary-routed fraction, outcomes on the
// active-routed remainder of the same key, and how often a canary miss fell
// back to the active wrapper. All fields are atomics — batch workers
// update them without taking the key table's lock.
type canaryStats struct {
	canaryOK  atomic.Uint64
	canaryErr atomic.Uint64
	activeOK  atomic.Uint64
	activeErr atomic.Uint64
	fallback  atomic.Uint64
}

// reset opens a fresh observation window, clearing each counter atomically:
// the extract path may be adding to it at the same moment.
func (c *canaryStats) reset() {
	for _, n := range []*atomic.Uint64{&c.canaryOK, &c.canaryErr, &c.activeOK, &c.activeErr, &c.fallback} {
		n.Store(0)
	}
}

// keyVersions is one key's entry in the Server's key table: the compiled
// active and canary wrappers the key serves (nil when the slot is empty)
// beside the record the registry persists, both guarded by Server.mu, plus
// the canary observation window and the per-key request counter that drives
// the deterministic canary stride split — atomics, which batch workers
// update holding no lock. A set Active or Canary slot always has its
// compiled wrapper beside it. A key shipped in the deploy-time fleet file
// has an active wrapper and an empty record: no versions recorded.
type keyVersions struct {
	active, canary wrapper.Any
	record
	rr    atomic.Uint64
	stats canaryStats
}

// errVersionConflict classifies promote/rollback guards that named a version
// the server is not currently staging — a stale rollout decision.
var errVersionConflict = errors.New("serve: version conflict")

// canaryStride converts the configured canary fraction into a stride: one of
// every stride requests for the key routes to the canary.
func canaryStride(fraction float64) uint64 {
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		return 4 // default fraction 0.25
	}
	s := uint64(math.Round(1 / fraction))
	if s < 1 {
		return 1
	}
	return s
}

// entry returns key's entry in the key table, creating an empty one. Caller
// holds mu for writing (or is New, before the server is shared).
func (s *Server) entry(key string) *keyVersions {
	kv := s.keys[key]
	if kv == nil {
		kv = &keyVersions{record: record{Key: key}}
		s.keys[key] = kv
	}
	return kv
}

// siteCount counts the keys with an active wrapper. Caller holds mu.
func (s *Server) siteCount() (n int) {
	for _, kv := range s.keys {
		if kv.active != nil {
			n++
		}
	}
	return n
}

// nextVersion assigns the next version for kv: one past the monotone
// counter, or the replicated version when the originating node assigned a
// higher one (so replicas converge on the origin's numbering).
func (kv *keyVersions) nextVersion(replicated uint64) uint64 {
	kv.LastVersion = max(kv.LastVersion+1, replicated)
	return kv.LastVersion
}

// gaugeVersions publishes the active/canary version numbers for the key (0 =
// none). Caller holds mu for writing.
func (s *Server) gaugeVersions(key string, kv *keyVersions) {
	s.obs.Gauge(obs.WithLabels("refresh_active_version", "site", key)).Set(int64(kv.Active.version()))
	s.obs.Gauge(obs.WithLabels("refresh_canary_version", "site", key)).Set(int64(kv.Canary.version()))
}

// writeResult is the outcome of one write: the HTTP status, and on success
// the response body of every write route (fields in the body's key order;
// each kind fills its own).
type writeResult struct {
	status    int
	Key       string `json:"key"`
	Outcome   string `json:"outcome,omitempty"`
	Persisted *bool  `json:"persisted,omitempty"` // absent without a registry
	Restored  uint64 `json:"restored,omitempty"`
	Sites     *int   `json:"sites,omitempty"` // put and delete only
	Version   uint64 `json:"version,omitempty"`
}

// guard checks a promote/rollback ?version against the slot it must name
// (0 accepts whatever is there).
func guard(op cluster.Op, slot *versionedWrapper, name string) error {
	if op.Version == 0 || op.Version == slot.Version {
		return nil
	}
	return fmt.Errorf("%w: %s names version %d, %s is %d", errVersionConflict, op.Kind, op.Version, name, slot.Version)
}

// apply is the one write path of the versioned registry: every put, delete,
// canary, promote and rollback — from the direct routes, POST /cluster/apply
// and the in-process seams — is decided here.
//
// A put or canary payload compiles first, outside the lock and through the
// shared cache, so re-registering a known expression — or the same wrapper
// under many keys — costs a lookup. Every existence and ?version check then
// runs under the key table's write lock, next to the transition it guards;
// promote swaps in the compiled canary, and only a rollback to the prior
// version, whose compiled form is not kept, compiles under the lock.
// op.Version is the origin's version for a replicated put or canary (the key
// takes the higher of it and its own next version) and the optional guard
// of promote and rollback; 0 means "assign locally" or "whatever is staged".
//
// A put becomes the key's new active version and drops any staged canary (a
// direct PUT supersedes an in-flight rollout); a delete leaves a versioned
// tombstone, so the deletion survives restarts and a later re-PUT
// resurrects the key one version higher. Every write ends in the same tail:
// version gauges, the key's refresh_* counter, and the registry write whose
// success the response reports as persisted — the write is live either
// way, so a deploy can alarm on false.
func (s *Server) apply(ctx context.Context, op cluster.Op) (res writeResult, err error) {
	var lw wrapper.Any
	if op.Kind == cluster.OpPut || op.Kind == cluster.OpCanary {
		var tier *string
		ctx, tier = extract.WithTierNote(ctx)
		if lw, err = wrapper.LoadAny(ctx, op.Payload, s.opt, s.cache); err != nil {
			res.status = failStatus(err, http.StatusBadRequest)
			return res, err
		}
		if op.Kind == cluster.OpPut {
			// Deferred before the unlock below, so it runs after it.
			defer func() {
				s.wideEvent(widePut,
					"trace", obs.TraceFromContext(ctx).TraceID,
					"key", op.Key,
					"version", res.Version,
					"cache_tier", *tier,
					"doc_bytes", len(op.Payload),
				)
			}()
		}
	}
	fail := func(status int, err error) (writeResult, error) { return writeResult{status: status}, err }
	s.mu.Lock()
	defer s.mu.Unlock()
	kv := s.keys[op.Key]
	res = writeResult{status: http.StatusOK, Key: op.Key}
	counter := ""
	switch op.Kind {
	case cluster.OpPut:
		kv = s.entry(op.Key)
		res.status, res.Version = http.StatusCreated, kv.nextVersion(op.Version)
		kv.Prior, kv.Canary, kv.Deleted = kv.Active, nil, false
		kv.Active = &versionedWrapper{Version: res.Version, Payload: append(json.RawMessage(nil), op.Payload...)}
		kv.active, kv.canary = lw, nil
	case cluster.OpDelete:
		if kv == nil || kv.active == nil {
			return fail(http.StatusNotFound, fmt.Errorf("no wrapper registered for %q", op.Key))
		}
		kv.nextVersion(0)
		kv.Active, kv.Canary, kv.Prior, kv.Deleted = nil, nil, nil, true
		kv.active, kv.canary = nil, nil
	case cluster.OpCanary:
		if kv == nil || kv.Active == nil {
			return fail(http.StatusNotFound, fmt.Errorf("no active wrapper for %q to canary against", op.Key))
		}
		res.status, res.Version = http.StatusCreated, kv.nextVersion(op.Version)
		kv.Canary = &versionedWrapper{Version: res.Version, Payload: append(json.RawMessage(nil), op.Payload...)}
		kv.canary = lw
		kv.stats.reset()
		counter = "refresh_canary_deploy_total"
	case cluster.OpPromote:
		if kv == nil || kv.Canary == nil {
			return fail(http.StatusNotFound, fmt.Errorf("no canary staged for %q", op.Key))
		}
		if err := guard(op, kv.Canary, "staged canary"); err != nil {
			return fail(http.StatusConflict, err)
		}
		kv.Prior, kv.Active, kv.Canary, kv.LastOutcome = kv.Active, kv.Canary, nil, "promoted"
		kv.active, kv.canary = kv.canary, nil
		res.Version, res.Outcome = kv.Active.Version, kv.LastOutcome
		counter = "refresh_promote_total"
	case cluster.OpRollback:
		// Discard the staged canary, or — with none staged but a prior
		// version kept — revert the active wrapper to it (the
		// post-promotion escape hatch).
		switch {
		case kv == nil || kv.LastVersion == 0:
			return fail(http.StatusNotFound, fmt.Errorf("no versions recorded for %q", op.Key))
		case kv.Canary != nil:
			if err := guard(op, kv.Canary, "staged canary"); err != nil {
				return fail(http.StatusConflict, err)
			}
			res.Version, kv.Canary, kv.canary = kv.Canary.Version, nil, nil
		case kv.Prior != nil && kv.Active != nil:
			if err := guard(op, kv.Active, "active"); err != nil {
				return fail(http.StatusConflict, err)
			}
			if lw, err = wrapper.LoadAny(context.Background(), kv.Prior.Payload, s.opt, s.cache); err != nil {
				return fail(http.StatusInternalServerError, fmt.Errorf("recompiling prior version for rollback: %w", err))
			}
			res.Version, res.Restored = kv.Active.Version, kv.Prior.Version
			kv.Active, kv.Prior, kv.active = kv.Prior, nil, lw
		default:
			return fail(http.StatusNotFound, fmt.Errorf("nothing to roll back for %q", op.Key))
		}
		kv.LastOutcome, res.Outcome = "rolled-back", "rolled-back"
		counter = "refresh_rollback_total"
	}

	if counter != "" {
		s.obs.Counter(obs.WithLabels(counter, "site", op.Key)).Inc()
	}
	s.gaugeVersions(op.Key, kv)
	if op.Kind == cluster.OpPut || op.Kind == cluster.OpDelete {
		sites := s.siteCount()
		res.Sites = &sites
	}
	if s.registry != nil {
		persisted := s.registry.write(kv.record) == nil
		res.Persisted = &persisted
	}
	return res, nil
}

// windowCounts is the canary observation window read at one instant, in
// the versions endpoint's "stats" field order.
type windowCounts struct {
	ActiveErr uint64 `json:"activeErr"`
	ActiveOK  uint64 `json:"activeOK"`
	CanaryErr uint64 `json:"canaryErr"`
	CanaryOK  uint64 `json:"canaryOK"`
	Fallback  uint64 `json:"fallback"`
}

// snapshot reads the version state and canary window of one key — the one
// read behind GET …/versions, VersionState, HasCanary and CanaryStats. ok is
// false when the key has no recorded versions (unknown, or shipped in the
// fleet file and never written since).
func (s *Server) snapshot(key string) (vs VersionState, win windowCounts, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	kv := s.keys[key]
	if kv == nil || kv.LastVersion == 0 {
		return vs, win, false
	}
	vs = VersionState{
		LastVersion: kv.LastVersion,
		Active:      kv.Active.version(),
		Canary:      kv.Canary.version(),
		Prior:       kv.Prior.version(),
		Deleted:     kv.Deleted,
		LastOutcome: kv.LastOutcome,
	}
	win = windowCounts{
		ActiveErr: kv.stats.activeErr.Load(),
		ActiveOK:  kv.stats.activeOK.Load(),
		CanaryErr: kv.stats.canaryErr.Load(),
		CanaryOK:  kv.stats.canaryOK.Load(),
		Fallback:  kv.stats.fallback.Load(),
	}
	return vs, win, true
}
