package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// futurePage is a redesigned layout the pageTop/pageBottom wrapper cannot
// parse — the "site changed" family used to exercise canaries.
const futurePage = `<div class="search"><span>find parts</span>
<form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
</form></div>`

// futurePayload trains a wrapper on the redesigned family and returns its
// persisted JSON. It extracts futurePage but not pageTop/pageBottom — and
// vice versa for trainedPayload — so either direction of a rollout can be
// made to miss on demand.
func futurePayload(t *testing.T) []byte {
	t.Helper()
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: futurePage, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func decodeVersions(t *testing.T, s *Server, key string) map[string]any {
	t.Helper()
	rec := do(t, s, "GET", "/wrappers/"+key+"/versions", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET versions for %s: %d: %s", key, rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

func versionOf(body map[string]any, slot string) uint64 {
	m, _ := body[slot].(map[string]any)
	if m == nil {
		return 0
	}
	v, _ := m["version"].(float64)
	return uint64(v)
}

// extractOne posts a single-doc batch and returns the result.
func extractOne(t *testing.T, s *Server, key, html string) extractResult {
	t.Helper()
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: key, HTML: html}}})
	rec := do(t, s, "POST", "/extract", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("extract: %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []extractResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("%d results, want 1", len(resp.Results))
	}
	return resp.Results[0]
}

// TestCanaryLifecyclePromote walks the happy rollout: PUT v1, stage a canary
// v2, observe the stride split feeding the observation window, promote, and
// confirm v2 is now active.
func TestCanaryLifecyclePromote(t *testing.T) {
	payload := trainedPayload(t)
	s, err := New(Config{CacheCap: 8, Observer: obs.New(), CanaryFraction: 0.5,
		Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "PUT", "/wrappers/vs", payload); rec.Code != http.StatusCreated {
		t.Fatalf("PUT v1: %d: %s", rec.Code, rec.Body)
	}
	// Canary against a missing key 404s.
	if rec := do(t, s, "PUT", "/wrappers/nosuch/canary", payload); rec.Code != http.StatusNotFound {
		t.Fatalf("canary without active: %d, want 404", rec.Code)
	}
	// Promote with nothing staged 404s.
	if rec := do(t, s, "POST", "/wrappers/vs/promote", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("promote without canary: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "PUT", "/wrappers/vs/canary", futurePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT canary: %d: %s", rec.Code, rec.Body)
	}
	body := decodeVersions(t, s, "vs")
	if versionOf(body, "active") != 1 || versionOf(body, "canary") != 2 {
		t.Fatalf("versions after canary = %v, want active 1 / canary 2", body)
	}

	// With stride 2, half of the requests route to the canary. The canary
	// parses futurePage; drive drifted traffic and every request must
	// succeed — canary-routed directly, active-routed... not. Use the old
	// family for active-routed checks instead: alternate pages so each
	// version sees the page it parses. Simplest deterministic check: drive
	// futurePage 10 times; canary-routed succeed, active-routed fall back to
	// the active wrapper which misses — those report errors but the request
	// itself is still answered.
	var okCount int
	for i := 0; i < 10; i++ {
		if extractOne(t, s, "vs", futurePage).OK {
			okCount++
		}
	}
	if okCount != 5 {
		t.Fatalf("canary-routed successes = %d, want exactly 5 (stride 2)", okCount)
	}
	body = decodeVersions(t, s, "vs")
	stats, _ := body["stats"].(map[string]any)
	if stats["canaryOK"].(float64) != 5 || stats["activeErr"].(float64) != 5 {
		t.Fatalf("window stats = %v, want canaryOK 5 / activeErr 5", stats)
	}

	// Promote with a stale version guard conflicts; the right one succeeds.
	if rec := do(t, s, "POST", "/wrappers/vs/promote?version=9", nil); rec.Code != http.StatusConflict {
		t.Fatalf("stale promote: %d, want 409", rec.Code)
	}
	rec := do(t, s, "POST", "/wrappers/vs/promote?version=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: %d: %s", rec.Code, rec.Body)
	}
	body = decodeVersions(t, s, "vs")
	if versionOf(body, "active") != 2 || versionOf(body, "canary") != 0 || versionOf(body, "prior") != 1 {
		t.Fatalf("versions after promote = %v, want active 2 / no canary / prior 1", body)
	}
	if body["lastOutcome"] != "promoted" {
		t.Fatalf("lastOutcome = %v, want promoted", body["lastOutcome"])
	}
	// v2 now serves all traffic.
	for i := 0; i < 4; i++ {
		if !extractOne(t, s, "vs", futurePage).OK {
			t.Fatal("promoted wrapper must parse the new family")
		}
	}
	// Post-promote rollback reverts to the prior version.
	if rec := do(t, s, "POST", "/wrappers/vs/rollback", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-promote rollback: %d: %s", rec.Code, rec.Body)
	}
	body = decodeVersions(t, s, "vs")
	if versionOf(body, "active") != 1 {
		t.Fatalf("versions after revert = %v, want active 1", body)
	}
	if !extractOne(t, s, "vs", pageTop).OK {
		t.Fatal("reverted wrapper must parse the old family again")
	}
}

// TestCanaryFallbackZeroFailedRequests is the structural guarantee: a canary
// that cannot parse the live traffic degrades its own statistics, but every
// canary-routed request falls back to the active wrapper and still succeeds.
// The fallback runs inside the document's one batch-pool slot, so the batch
// counters see each document once, by its final outcome.
func TestCanaryFallbackZeroFailedRequests(t *testing.T) {
	payload := trainedPayload(t)
	o := obs.New()
	s, err := New(Config{CacheCap: 8, Observer: o, CanaryFraction: 0.5,
		Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "PUT", "/wrappers/vs", payload); rec.Code != http.StatusCreated {
		t.Fatalf("PUT v1: %d", rec.Code)
	}
	// The canary is trained on the *future* family; live traffic is still
	// the old family, so every canary-routed request misses and falls back.
	if rec := do(t, s, "PUT", "/wrappers/vs/canary", futurePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT canary: %d", rec.Code)
	}
	for i := 0; i < 10; i++ {
		if res := extractOne(t, s, "vs", pageTop); !res.OK {
			t.Fatalf("request %d failed despite active fallback: %+v", i, res)
		}
	}
	body := decodeVersions(t, s, "vs")
	stats, _ := body["stats"].(map[string]any)
	if stats["canaryErr"].(float64) != 5 || stats["fallback"].(float64) != 5 {
		t.Fatalf("window stats = %v, want canaryErr 5 / fallback 5", stats)
	}
	if stats["activeOK"].(float64) != 5 {
		t.Fatalf("window stats = %v, want activeOK 5", stats)
	}
	snap := o.Metrics.Snapshot()
	if docs, errs := snap.Counters["wrapper_batch_docs_total"], snap.Counters["wrapper_batch_errors_total"]; docs != 10 || errs != 0 {
		t.Fatalf("wrapper_batch_docs_total = %d, wrapper_batch_errors_total = %d after 10 answered documents, want 10 and 0", docs, errs)
	}
	// The judge would roll this back; do it via the endpoint.
	if rec := do(t, s, "POST", "/wrappers/vs/rollback", nil); rec.Code != http.StatusOK {
		t.Fatalf("rollback: %d", rec.Code)
	}
	body = decodeVersions(t, s, "vs")
	if versionOf(body, "canary") != 0 || body["lastOutcome"] != "rolled-back" {
		t.Fatalf("after rollback: %v", body)
	}
	// All traffic back on the active version.
	for i := 0; i < 4; i++ {
		if !extractOne(t, s, "vs", pageTop).OK {
			t.Fatal("active wrapper must keep serving after rollback")
		}
	}
}

// TestRegistryTombstoneThenRePutResurrects: DELETE then PUT of the same key
// across a restart must resurrect the key with a strictly higher version,
// not stay tombstoned (the tombstone is a versioned record, not a terminal
// state).
func TestRegistryTombstoneThenRePutResurrects(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)
	s1 := diskServer(t, dir, nil, obs.New())
	if rec := do(t, s1, "PUT", "/wrappers/vs", payload); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	if rec := do(t, s1, "DELETE", "/wrappers/vs", nil); rec.Code != http.StatusOK {
		t.Fatalf("DELETE: %d", rec.Code)
	}

	// Restart: the tombstone holds, but keeps its version history.
	s2 := diskServer(t, dir, nil, obs.New())
	if s2.Active("vs") != nil {
		t.Fatal("tombstoned key resurrected by restart alone")
	}
	body := decodeVersions(t, s2, "vs")
	if body["deleted"] != true {
		t.Fatalf("restarted tombstone state: %v", body)
	}
	last := body["lastVersion"].(float64)
	if last < 2 {
		t.Fatalf("tombstone lost the version counter: lastVersion = %v", last)
	}

	// Re-PUT after the restart: alive again, strictly higher version.
	rec := do(t, s2, "PUT", "/wrappers/vs", payload)
	if rec.Code != http.StatusCreated {
		t.Fatalf("re-PUT: %d: %s", rec.Code, rec.Body)
	}
	var put struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &put); err != nil {
		t.Fatal(err)
	}
	if put.Version <= uint64(last) {
		t.Fatalf("re-PUT version %d not above tombstone version %v", put.Version, last)
	}

	// And a second restart keeps the resurrection.
	s3 := diskServer(t, dir, nil, obs.New())
	if s3.Active("vs") == nil {
		t.Fatal("resurrected key lost after second restart")
	}
	body = decodeVersions(t, s3, "vs")
	if body["deleted"] == true || versionOf(body, "active") != put.Version {
		t.Fatalf("state after second restart: %v", body)
	}
}

// TestRestartMidCanaryRecoversVersions: a node that restarts with a canary
// in flight must come back serving the same active version, with the canary
// re-staged at its version — not promoted, not lost.
func TestRestartMidCanaryRecoversVersions(t *testing.T) {
	dir := t.TempDir()
	s1 := diskServer(t, dir, nil, obs.New())
	if rec := do(t, s1, "PUT", "/wrappers/vs", trainedPayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT v1: %d", rec.Code)
	}
	if rec := do(t, s1, "PUT", "/wrappers/vs/canary", futurePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT canary: %d", rec.Code)
	}

	s2 := diskServer(t, dir, nil, obs.New())
	body := decodeVersions(t, s2, "vs")
	if versionOf(body, "active") != 1 || versionOf(body, "canary") != 2 {
		t.Fatalf("restarted versions = %v, want active 1 / canary 2", body)
	}
	// The active wrapper serves the old family; the re-staged canary is live
	// (it parses the new family when its stride slot comes up).
	if !extractOne(t, s2, "vs", pageTop).OK {
		// First request may be canary-routed (stride slot 0) and fall back;
		// either way it must succeed.
		t.Fatal("active traffic failed after mid-canary restart")
	}
	if rec := do(t, s2, "POST", "/wrappers/vs/promote", nil); rec.Code != http.StatusOK {
		t.Fatalf("promote after restart: %d", rec.Code)
	}
	if !extractOne(t, s2, "vs", futurePage).OK {
		t.Fatal("promoted canary must parse the new family after restart")
	}
}

// TestClusterApplyVersionedOps drives canary/promote/rollback through the
// replication endpoint, as a router would fan them out to a key's owners.
func TestClusterApplyVersionedOps(t *testing.T) {
	s, payload := testServer(t)
	// Seed via a replicated put so the key has version state.
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpPut, Key: "vs", Payload: payload})); rec.Code != http.StatusCreated {
		t.Fatalf("apply put: %d: %s", rec.Code, rec.Body)
	}
	fp := futurePayload(t)
	// The originating node assigned version 7; the replica must adopt it.
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpCanary, Key: "vs", Version: 7, Payload: fp})); rec.Code != http.StatusCreated {
		t.Fatalf("apply canary: %d: %s", rec.Code, rec.Body)
	}
	body := decodeVersions(t, s, "vs")
	if versionOf(body, "canary") != 7 {
		t.Fatalf("replicated canary version = %v, want 7", body)
	}
	// A promote guarded on the wrong version conflicts.
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpPromote, Key: "vs", Version: 3})); rec.Code != http.StatusConflict {
		t.Fatalf("stale replicated promote: %d, want 409", rec.Code)
	}
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpPromote, Key: "vs", Version: 7})); rec.Code != http.StatusOK {
		t.Fatalf("apply promote: %d", rec.Code)
	}
	body = decodeVersions(t, s, "vs")
	if versionOf(body, "active") != 7 || body["lastOutcome"] != "promoted" {
		t.Fatalf("after replicated promote: %v", body)
	}
	// Replicated rollback reverts the promotion.
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpRollback, Key: "vs"})); rec.Code != http.StatusOK {
		t.Fatalf("apply rollback: %d", rec.Code)
	}
	if body = decodeVersions(t, s, "vs"); versionOf(body, "active") == 7 {
		t.Fatalf("rollback did not revert: %v", body)
	}
	if !strings.Contains(do(t, s, "GET", "/metrics", nil).Body.String(), "refresh_promote_total") {
		t.Fatal("refresh_promote_total not exposed")
	}
}

// TestConcurrentWritesKeepOneHistory races all five writes on one key
// against batch extraction. Every check and transition happens under the
// version lock, so the outcome is one consistent history: the counter
// moved once per successful put, canary and delete, the served wrappers
// match the recorded slots, and a restart from the registry recovers exactly the
// final state.
func TestConcurrentWritesKeepOneHistory(t *testing.T) {
	dir := t.TempDir()
	s := diskServer(t, dir, nil, obs.New())
	good, next := trainedPayload(t), futurePayload(t)
	if _, err := s.PutWrapper(context.Background(), "vs", good); err != nil {
		t.Fatal(err)
	}
	var consumed atomic.Uint64 // successful version-consuming writes
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				switch (g + i) % 5 {
				case 0:
					if _, err := s.PutWrapper(context.Background(), "vs", good); err == nil {
						consumed.Add(1)
					}
				case 1:
					if _, err := s.DeployCanary("vs", next); err == nil {
						consumed.Add(1)
					}
				case 2:
					s.Promote("vs", 0)
				case 3:
					s.Rollback("vs", 0)
				case 4:
					if s.DeleteWrapper("vs") {
						consumed.Add(1)
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		// Four documents per batch, so both pool workers route and update
		// the canary window while the writes land.
		docs := []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}, {Key: "vs", HTML: futurePage}, {Key: "vs", HTML: pageTop}, {Key: "vs", HTML: futurePage}}
		for {
			select {
			case <-stop:
				return
			default:
				s.ExtractBatch(context.Background(), docs)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	got, ok := s.VersionState("vs")
	if !ok || got.LastVersion != 1+consumed.Load() {
		t.Fatalf("final state %+v: counter moved %d times for %d successful writes",
			got, got.LastVersion-1, consumed.Load())
	}
	kv := s.keys["vs"]
	if (got.Active != 0) != (kv.active != nil) || (got.Canary != 0) != s.HasCanary("vs") ||
		(got.Canary != 0) != (kv.canary != nil) {
		t.Fatalf("final state %+v disagrees with the served wrappers", got)
	}
	restarted, _ := diskServer(t, dir, nil, obs.New()).VersionState("vs")
	if restarted != got {
		t.Fatalf("restart recovered %+v, want the final state %+v", restarted, got)
	}
}
