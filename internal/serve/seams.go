package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"resilex/internal/cluster"
	"resilex/internal/wrapper"
)

// In-process driving surface. The HTTP handlers stay the production entry
// points; these exported seams let an embedding harness — the refresh
// controller (refresh.Deployment is satisfied structurally; serve does not
// import refresh) and the API-sequence differential fuzzer in
// internal/seqfuzz — drive the same apply and extraction paths the handlers
// call, without a listener in the loop, and snapshot the versioned-registry
// state for cross-checking against a reference model.

// PutWrapper registers (or replaces) the key's active wrapper from its
// persisted JSON — the in-process seam of PUT /wrappers/{key}. It returns
// the version assigned to the registration. Error classification matches the
// handler: undecodable payloads wrap wrapper.ErrMalformedInput, exhausted
// construction budgets wrap machine.ErrBudget / machine.ErrDeadline.
func (s *Server) PutWrapper(ctx context.Context, key string, payload []byte) (uint64, error) {
	res, err := s.apply(ctx, cluster.Op{Kind: cluster.OpPut, Key: key, Payload: payload})
	return res.Version, err
}

// DeleteWrapper removes the key's wrapper, persisting a versioned tombstone
// — the in-process seam of DELETE /wrappers/{key}. It reports whether the
// key was registered.
func (s *Server) DeleteWrapper(key string) bool {
	_, err := s.apply(context.Background(), cluster.Op{Kind: cluster.OpDelete, Key: key})
	return err == nil
}

// DeployCanary stages payload as the key's canary version.
func (s *Server) DeployCanary(key string, payload []byte) (uint64, error) {
	res, err := s.apply(context.Background(), cluster.Op{Kind: cluster.OpCanary, Key: key, Payload: payload})
	return res.Version, err
}

// Promote promotes the staged canary (version 0 = whatever is staged).
func (s *Server) Promote(key string, version uint64) error {
	_, err := s.apply(context.Background(), cluster.Op{Kind: cluster.OpPromote, Key: key, Version: version})
	return err
}

// Rollback rolls back the staged canary (version 0 = whatever is staged).
func (s *Server) Rollback(key string, version uint64) error {
	_, err := s.apply(context.Background(), cluster.Op{Kind: cluster.OpRollback, Key: key, Version: version})
	return err
}

// ExtractBatch runs the canary-aware batch path over docs — the in-process
// seam of POST /extract. Results are in input order; per-document failures
// are reported in the result, exactly like the handler's response rows.
func (s *Server) ExtractBatch(ctx context.Context, docs []wrapper.BatchDoc) []wrapper.BatchResult {
	results, _ := s.extractBatch(ctx, docs)
	return results
}

// Extract runs the key's active wrapper over html — the probe the refresh
// controller scores sampled pages with. Tuple keys probe as record
// extraction: a page yielding no records is a miss, and the probe stops at
// the first record.
func (s *Server) Extract(key, html string) error {
	switch wr := s.Active(key).(type) {
	case *wrapper.Wrapper:
		_, err := wr.Extract(html)
		return err
	case *wrapper.TupleWrapper:
		err := wr.ExtractAllTo(context.Background(), []byte(html), func([]wrapper.StreamRegion) error {
			return errFoundRecord
		})
		switch err {
		case errFoundRecord:
			return nil
		case nil:
			return wrapper.ErrNotExtracted
		}
		return err
	}
	return fmt.Errorf("no wrapper registered for %q", key)
}

// errFoundRecord stops a probe's enumeration at its first record.
var errFoundRecord = errors.New("serve: found a record")

// Sites lists every key with an active wrapper, either kind, sorted.
func (s *Server) Sites() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sites []string
	for key, kv := range s.keys {
		if kv.active != nil {
			sites = append(sites, key)
		}
	}
	sort.Strings(sites)
	return sites
}

// ActivePayload returns the persisted JSON of the key's active version (nil
// when the key has none recorded — e.g. it came from a deploy-time fleet
// file without a registry entry).
func (s *Server) ActivePayload(key string) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if kv := s.keys[key]; kv != nil && kv.Active != nil {
		return append([]byte(nil), kv.Active.Payload...)
	}
	return nil
}

// VersionState is a point-in-time snapshot of one key's versioned-registry
// state: the monotone counter, the versions occupying the active, canary and
// prior slots (0 = empty), the tombstone flag, and how the last concluded
// rollout ended. It is the comparable form of GET /wrappers/{key}/versions.
type VersionState struct {
	LastVersion uint64
	Active      uint64
	Canary      uint64
	Prior       uint64
	Deleted     bool
	LastOutcome string
}

// VersionState snapshots the version state recorded for key; ok is false
// when the key has never been registered through the versioned registry.
func (s *Server) VersionState(key string) (VersionState, bool) {
	vs, _, ok := s.snapshot(key)
	return vs, ok
}

// HasCanary reports whether a canary is staged for the key.
func (s *Server) HasCanary(key string) bool {
	vs, _, _ := s.snapshot(key)
	return vs.Canary != 0
}

// CanaryStats reports the observation window opened at the last canary
// deploy: extraction outcomes on the canary-routed and active-routed
// fractions of the key's traffic.
func (s *Server) CanaryStats(key string) (canaryOK, canaryErr, activeOK, activeErr uint64) {
	_, win, _ := s.snapshot(key)
	return win.CanaryOK, win.CanaryErr, win.ActiveOK, win.ActiveErr
}
