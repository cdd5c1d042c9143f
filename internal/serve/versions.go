package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// The per-key version state machine behind the continuous-refresh pipeline.
// Every key carries a monotone version counter; each mutation — put, delete,
// canary, promote, rollback — assigns or consumes versions from it, so the
// ordering of operations is recoverable from disk after a restart and a
// DELETE followed by a re-PUT resurrects the key with a strictly higher
// version instead of staying tombstoned.
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

// canaryStats is the sliding observation window opened at canary deploy
// time: extraction outcomes on the canary-routed fraction, outcomes on the
// active-routed remainder of the same key, and how often a canary miss fell
// back to the active wrapper. All fields are atomics — the extract path
// updates them without taking the version lock.
type canaryStats struct {
	canaryOK  atomic.Uint64
	canaryErr atomic.Uint64
	activeOK  atomic.Uint64
	activeErr atomic.Uint64
	fallback  atomic.Uint64
}

// keyVersions is the version state of one key. Guarded by Server.vmu except
// the stats atomics and the round-robin counter.
type keyVersions struct {
	lastVersion uint64
	active      *versionedWrapper
	canary      *versionedWrapper
	prior       *versionedWrapper
	deleted     bool
	// lastOutcome records how the most recent canary concluded: "promoted"
	// or "rolled-back" ("" while none has concluded). Exposed on the
	// versions endpoint so rollout tooling can poll for a verdict.
	lastOutcome string
	// rr is the per-key request counter driving the deterministic canary
	// stride split.
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

// ensureVersions returns the version state for key, creating it. Caller
// holds vmu.
func (s *Server) ensureVersions(key string) *keyVersions {
	kv := s.versions[key]
	if kv == nil {
		kv = &keyVersions{}
		s.versions[key] = kv
	}
	return kv
}

// nextVersion assigns the next version for kv: one past the monotone
// counter, or the replicated version when the originating node assigned a
// higher one (so replicas converge on the origin's numbering).
func (kv *keyVersions) nextVersion(replicated uint64) uint64 {
	v := kv.lastVersion + 1
	if replicated > v {
		v = replicated
	}
	kv.lastVersion = v
	return v
}

// gaugeVersions publishes the active/canary version numbers for the key (0 =
// none). Caller holds vmu.
func (s *Server) gaugeVersions(key string, kv *keyVersions) {
	var active, canary uint64
	if kv.active != nil {
		active = kv.active.Version
	}
	if kv.canary != nil {
		canary = kv.canary.Version
	}
	s.obs.Gauge(obs.WithLabels("refresh_active_version", "site", key)).Set(int64(active))
	s.obs.Gauge(obs.WithLabels("refresh_canary_version", "site", key)).Set(int64(canary))
}

// canaryWrapper stages payload as the canary version for key. The key must
// already have an active wrapper — a canary is a candidate replacement, not
// a first registration. version, when non-zero, is the version the
// originating node assigned (replication); zero assigns locally.
func (s *Server) canaryWrapper(ctx context.Context, key string, body []byte, version uint64) (status int, resp map[string]any, err error) {
	lw, err := wrapper.LoadAny(ctx, body, s.opt, s.cache)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
			status = http.StatusServiceUnavailable
		}
		return status, nil, err
	}
	s.vmu.Lock()
	defer s.vmu.Unlock()
	kv := s.versions[key]
	if kv == nil || kv.active == nil {
		return http.StatusNotFound, nil, fmt.Errorf("no active wrapper for %q to canary against", key)
	}
	v := kv.nextVersion(version)
	kv.canary = &versionedWrapper{Version: v, Payload: append(json.RawMessage(nil), body...)}
	kv.stats = canaryStats{} // fresh observation window
	s.canaryFleet.Set(key, lw)
	s.obs.Counter(obs.WithLabels("refresh_canary_deploy_total", "site", key)).Inc()
	s.gaugeVersions(key, kv)
	resp = map[string]any{"key": key, "version": v}
	if s.registry != nil {
		resp["persisted"] = s.registry.writeState(key, kv) == nil
	}
	return http.StatusCreated, resp, nil
}

// promoteWrapper makes the staged canary the active wrapper. version, when
// non-zero, must name the staged canary (guard against promoting a canary
// the caller never observed).
func (s *Server) promoteWrapper(key string, version uint64) (status int, resp map[string]any, err error) {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	kv := s.versions[key]
	if kv == nil || kv.canary == nil {
		return http.StatusNotFound, nil, fmt.Errorf("no canary staged for %q", key)
	}
	if version != 0 && version != kv.canary.Version {
		return http.StatusConflict, nil, fmt.Errorf("%w: promote names version %d, staged canary is %d",
			errVersionConflict, version, kv.canary.Version)
	}
	lw := s.canaryFleet.Lookup(key)
	if lw == nil {
		// The compiled canary should be resident; recompile from the payload
		// if it is not (e.g. a replica that restarted between ops).
		if lw, err = wrapper.LoadAny(context.Background(), kv.canary.Payload, s.opt, s.cache); err != nil {
			return http.StatusInternalServerError, nil, fmt.Errorf("recompiling canary for promote: %w", err)
		}
	}
	kv.prior = kv.active
	kv.active = kv.canary
	kv.canary = nil
	kv.lastOutcome = "promoted"
	s.fleet.Set(key, lw)
	s.canaryFleet.Remove(key)
	s.obs.Counter(obs.WithLabels("refresh_promote_total", "site", key)).Inc()
	s.gaugeVersions(key, kv)
	resp = map[string]any{"key": key, "version": kv.active.Version, "outcome": "promoted"}
	if s.registry != nil {
		resp["persisted"] = s.registry.writeState(key, kv) == nil
	}
	return http.StatusOK, resp, nil
}

// rollbackWrapper discards the staged canary, or — when no canary is staged
// but a prior version exists — reverts the active wrapper to the prior
// version (the post-promotion escape hatch). version, when non-zero, names
// the canary (or promoted version) being rolled back.
func (s *Server) rollbackWrapper(key string, version uint64) (status int, resp map[string]any, err error) {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	kv := s.versions[key]
	if kv == nil {
		return http.StatusNotFound, nil, fmt.Errorf("no versions recorded for %q", key)
	}
	switch {
	case kv.canary != nil:
		if version != 0 && version != kv.canary.Version {
			return http.StatusConflict, nil, fmt.Errorf("%w: rollback names version %d, staged canary is %d",
				errVersionConflict, version, kv.canary.Version)
		}
		rolled := kv.canary.Version
		kv.canary = nil
		kv.lastOutcome = "rolled-back"
		s.canaryFleet.Remove(key)
		s.obs.Counter(obs.WithLabels("refresh_rollback_total", "site", key)).Inc()
		s.gaugeVersions(key, kv)
		resp = map[string]any{"key": key, "version": rolled, "outcome": "rolled-back"}
	case kv.prior != nil && kv.active != nil:
		if version != 0 && version != kv.active.Version {
			return http.StatusConflict, nil, fmt.Errorf("%w: rollback names version %d, active is %d",
				errVersionConflict, version, kv.active.Version)
		}
		lw, err := wrapper.LoadAny(context.Background(), kv.prior.Payload, s.opt, s.cache)
		if err != nil {
			return http.StatusInternalServerError, nil, fmt.Errorf("recompiling prior version for rollback: %w", err)
		}
		rolled := kv.active.Version
		kv.active = kv.prior
		kv.prior = nil
		kv.lastOutcome = "rolled-back"
		s.fleet.Set(key, lw)
		s.obs.Counter(obs.WithLabels("refresh_rollback_total", "site", key)).Inc()
		s.gaugeVersions(key, kv)
		resp = map[string]any{"key": key, "version": rolled, "restored": kv.active.Version, "outcome": "rolled-back"}
	default:
		return http.StatusNotFound, nil, fmt.Errorf("nothing to roll back for %q", key)
	}
	if s.registry != nil {
		resp["persisted"] = s.registry.writeState(key, s.versions[key]) == nil
	}
	return http.StatusOK, resp, nil
}

// versionsStatus snapshots the version state of one key for the versions
// endpoint and the refresh controller's judgment.
func (s *Server) versionsStatus(key string) (map[string]any, bool) {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	kv := s.versions[key]
	if kv == nil {
		return nil, false
	}
	body := map[string]any{
		"key":         key,
		"lastVersion": kv.lastVersion,
		"deleted":     kv.deleted,
		"lastOutcome": kv.lastOutcome,
	}
	if kv.active != nil {
		body["active"] = map[string]any{"version": kv.active.Version}
	}
	if kv.canary != nil {
		body["canary"] = map[string]any{"version": kv.canary.Version}
	}
	if kv.prior != nil {
		body["prior"] = map[string]any{"version": kv.prior.Version}
	}
	body["stats"] = map[string]any{
		"canaryOK":  kv.stats.canaryOK.Load(),
		"canaryErr": kv.stats.canaryErr.Load(),
		"activeOK":  kv.stats.activeOK.Load(),
		"activeErr": kv.stats.activeErr.Load(),
		"fallback":  kv.stats.fallback.Load(),
	}
	return body, true
}

// Deployment surface for the refresh controller (refresh.Deployment is
// satisfied structurally — serve does not import refresh).

// Sites lists every key with an active wrapper, either kind, sorted.
func (s *Server) Sites() []string { return s.fleet.Keys() }

// ActivePayload returns the persisted JSON of the key's active version (nil
// when the key has none recorded — e.g. it came from a deploy-time fleet
// file without a registry entry).
func (s *Server) ActivePayload(key string) []byte {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	if kv := s.versions[key]; kv != nil && kv.active != nil {
		return append([]byte(nil), kv.active.Payload...)
	}
	return nil
}

// HasCanary reports whether a canary is staged for the key.
func (s *Server) HasCanary(key string) bool {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	kv := s.versions[key]
	return kv != nil && kv.canary != nil
}

// DeployCanary stages payload as the key's canary version.
func (s *Server) DeployCanary(key string, payload []byte) (uint64, error) {
	_, resp, err := s.canaryWrapper(context.Background(), key, payload, 0)
	if err != nil {
		return 0, err
	}
	v, _ := resp["version"].(uint64)
	return v, nil
}

// CanaryStats reports the observation window opened at the last canary
// deploy: extraction outcomes on the canary-routed and active-routed
// fractions of the key's traffic.
func (s *Server) CanaryStats(key string) (canaryOK, canaryErr, activeOK, activeErr uint64) {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	kv := s.versions[key]
	if kv == nil {
		return 0, 0, 0, 0
	}
	return kv.stats.canaryOK.Load(), kv.stats.canaryErr.Load(),
		kv.stats.activeOK.Load(), kv.stats.activeErr.Load()
}

// Promote promotes the staged canary (version 0 = whatever is staged).
func (s *Server) Promote(key string, version uint64) error {
	_, _, err := s.promoteWrapper(key, version)
	return err
}

// Rollback rolls back the staged canary (version 0 = whatever is staged).
func (s *Server) Rollback(key string, version uint64) error {
	_, _, err := s.rollbackWrapper(key, version)
	return err
}

// Extract runs the key's active wrapper over html — the probe the refresh
// controller scores sampled pages with. Tuple keys probe as record
// extraction: a page yielding no records is a miss.
func (s *Server) Extract(key, html string) error {
	switch wr := s.fleet.Lookup(key).(type) {
	case *wrapper.Wrapper:
		_, err := wr.Extract(html)
		return err
	case *wrapper.TupleWrapper:
		records, err := wr.ExtractAll(html)
		if err == nil && len(records) == 0 {
			err = wrapper.ErrNotExtracted
		}
		return err
	}
	return fmt.Errorf("no wrapper registered for %q", key)
}
