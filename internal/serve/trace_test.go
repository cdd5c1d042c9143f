package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// tracedShard is one real serve.Server with its own observer, mounted on a
// real HTTP listener — a whole shard process as far as tracing is concerned
// (its spans only reach the router via the /debug/traces HTTP fetch).
type tracedShard struct {
	srv *Server
	obs *obs.Observer
	web *httptest.Server
}

func newTracedShard(t *testing.T) *tracedShard {
	t.Helper()
	o := obs.New()
	// CanaryFraction 1 routes every doc of a canaried key to the canary, so a
	// bad canary deterministically produces fallback spans.
	s, err := New(Config{CacheCap: 8, Observer: o, CanaryFraction: 1,
		Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(s.Mux())
	t.Cleanup(web.Close)
	return &tracedShard{srv: s, obs: o, web: web}
}

// TestClusterTraceAssembly is the end-to-end tracing test the tentpole hangs
// on: two real shard processes behind a router, a wrapper registration and a
// bad canary replicated through the router, then a routed extraction whose
// every canary attempt misses and falls back — all under ONE client-minted
// trace ID. The assembled trace fetched from the router's
// GET /debug/traces/{id} must contain the router's own routing spans, the
// replication fan-out, both shards' apply+cache spans, and the serving
// shard's extract/canary/fallback spans, stitched into one tree.
func TestClusterTraceAssembly(t *testing.T) {
	shards := []*tracedShard{newTracedShard(t), newTracedShard(t)}
	peers := []string{shards[0].web.URL, shards[1].web.URL}
	ro := obs.New()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers: peers, Replicas: 2, Observer: ro, ProxyTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerWeb := httptest.NewServer(rt.Mux())
	defer routerWeb.Close()

	traceID := obs.NewTraceID()
	do := func(method, path string, body []byte, contentType string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, routerWeb.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		req.Header.Set(obs.TraceHeader, traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// One trace covers the whole lifecycle: register the active wrapper and
	// stage the bad canary (trained on the future family, so live old-family
	// traffic misses), then extract.
	if resp := do("PUT", "/wrappers/vs", trainedPayload(t), "application/json"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed PUT: %d", resp.StatusCode)
	}
	if resp := do("PUT", "/wrappers/vs/canary", futurePayload(t), "application/json"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed canary PUT: %d", resp.StatusCode)
	}
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	resp := do("POST", "/extract", body, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed extract: %d", resp.StatusCode)
	}
	if echoed := resp.Header.Get(obs.TraceHeader); echoed != traceID {
		t.Fatalf("response trace header = %q, want %q", echoed, traceID)
	}
	var out struct {
		Results []extractResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || !out.Results[0].OK {
		t.Fatalf("extract results = %+v, want one fallback-served success", out.Results)
	}

	// Fetch the assembled trace from the router (the ingress node): its own
	// spans merged with both shards' halves over HTTP.
	tresp, err := http.Get(routerWeb.URL + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d", tresp.StatusCode)
	}
	var trace struct {
		TraceID string           `json:"traceId"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.TraceID != traceID {
		t.Fatalf("assembled trace id = %q, want %q", trace.TraceID, traceID)
	}

	byName := map[string][]obs.SpanRecord{}
	for _, s := range trace.Spans {
		if s.TraceID != traceID {
			t.Errorf("span %s carries foreign trace %q", s.Name, s.TraceID)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	// The router half: routing, per-attempt, and replication fan-out spans.
	for _, want := range []string{"router.extract", "router.attempt", "router.replicate"} {
		if len(byName[want]) == 0 {
			t.Errorf("assembled trace missing router span %q (have %v)", want, spanNames(trace.Spans))
		}
	}
	// The shard half: request, batch phases, the canary miss, its fallback,
	// the replicated applies and the cache-tier lookups behind them.
	for _, want := range []string{"serve.extract", "serve.canary", "serve.fallback", "shard.apply", "cache.lookup"} {
		if len(byName[want]) == 0 {
			t.Errorf("assembled trace missing shard span %q (have %v)", want, spanNames(trace.Spans))
		}
	}
	// Replication reached both owner processes: the put and the canary each
	// fan out to 2 owners, so 4 apply spans from 2 distinct shard stores.
	if got := len(byName["shard.apply"]); got != 4 {
		t.Errorf("shard.apply spans = %d, want 4 (put+canary × 2 owners)", got)
	}
	for i, sh := range shards {
		if len(sh.obs.Trace.Trace(traceID)) == 0 {
			t.Errorf("shard %d holds no spans of the trace — assembly did not span both processes", i)
		}
	}
	// Parentage is stitched across the process boundary: the serving shard's
	// serve.extract span parents to one of the router's attempt spans.
	attempts := map[int64]bool{}
	for _, s := range byName["router.attempt"] {
		attempts[s.ID] = true
	}
	stitched := false
	for _, s := range byName["serve.extract"] {
		if attempts[s.Parent] {
			stitched = true
		}
	}
	if !stitched {
		t.Error("serve.extract does not parent to a router.attempt span across the process boundary")
	}
	// The canary fallback is attributed on the request span.
	sawFallbackRung := false
	for _, s := range byName["serve.extract"] {
		for _, a := range s.SAttrs {
			if a.Key == "rung" && a.Value == "canary_fallback" {
				sawFallbackRung = true
			}
		}
	}
	if !sawFallbackRung {
		t.Error("no serve.extract span carries rung=canary_fallback")
	}

	// The routed request left per-node attempt counters on the router and a
	// trace-ID exemplar on the serving shard's latency histogram, visible in
	// the OpenMetrics exposition.
	snap := ro.Metrics.Snapshot()
	okAttempts := int64(0)
	for _, node := range peers {
		okAttempts += snap.Counters[obs.WithLabels("cluster_route_attempts_total", "node", node, "outcome", "ok")]
	}
	if okAttempts == 0 {
		t.Errorf("no ok route attempts counted per node: %v", snap.Counters)
	}
	sawExemplar := false
	for _, sh := range shards {
		var b strings.Builder
		if err := sh.obs.Metrics.WriteOpenMetrics(&b); err != nil {
			t.Fatal(err)
		}
		om := b.String()
		if !strings.HasSuffix(om, "# EOF\n") {
			t.Fatal("shard OpenMetrics exposition not terminated with # EOF")
		}
		if strings.Contains(om, "serve_extract_duration_us_bucket") &&
			strings.Contains(om, `# {trace_id="`+traceID+`"}`) {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Error("no shard exposes a serve_extract_duration_us exemplar for the trace")
	}
}

func spanNames(spans []obs.SpanRecord) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	return names
}

// TestWideEventSampling: with a logger installed and a sampling interval of
// 2, every second request emits one serve.request wide event carrying the
// request's trace ID, rung, outcome fields and decoded page bytes.
func TestWideEventSampling(t *testing.T) {
	o := obs.New()
	type event struct {
		name string
		kv   map[string]any
	}
	var events []event
	o.Log = obs.FuncLogger(func(name string, kv ...any) {
		m := map[string]any{}
		for i := 0; i+1 < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		events = append(events, event{name, m})
	})
	payload := trainedPayload(t)
	s, err := New(Config{CacheCap: 8, Observer: o, WideEventSample: 2,
		Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "PUT", "/wrappers/vs", payload); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	var put []event
	for _, e := range events {
		if e.name == "serve.wrapper_put" {
			put = append(put, e)
		}
	}
	if len(put) != 1 {
		t.Fatalf("wrapper_put wide events = %d, want 1", len(put))
	}
	if put[0].kv["key"] != "vs" || put[0].kv["cache_tier"] == "" {
		t.Fatalf("wrapper_put event fields = %v", put[0].kv)
	}

	events = nil
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	for i := 0; i < 4; i++ {
		if rec := do(t, s, "POST", "/extract", body); rec.Code != http.StatusOK {
			t.Fatalf("extract %d: %d", i, rec.Code)
		}
	}
	var reqs []event
	for _, e := range events {
		if e.name == "serve.request" {
			reqs = append(reqs, e)
		}
	}
	if len(reqs) != 2 {
		t.Fatalf("sampled serve.request events = %d, want 2 of 4", len(reqs))
	}
	e := reqs[0].kv
	if e["docs"] != 1 || e["ok"] != 1 || e["rung"] != "active" {
		t.Fatalf("wide event fields = %v", e)
	}
	// doc_bytes counts decoded page bytes, not the body's JSON escapes.
	if e["doc_bytes"] != len(pageTop) {
		t.Fatalf("wide event doc_bytes = %v, want %d (body is %d bytes)", e["doc_bytes"], len(pageTop), len(body))
	}
	trace, _ := e["trace"].(string)
	if len(trace) != 32 {
		t.Fatalf("wide event trace id = %q, want a minted 128-bit id", trace)
	}
}

// TestWideEventSamplingPerSurface: each surface samples on its own counter.
// At an interval of 2, two PUTs, ten POST /extract requests alternating
// with ten POST /extract/tuples requests, then ten stream requests log one
// put and five events for each page surface. With one counter shared by
// the surfaces, the alternation logged every batch request and no tuples
// request.
func TestWideEventSamplingPerSurface(t *testing.T) {
	o := obs.New()
	counts := map[string]int{}
	o.Log = obs.FuncLogger(func(name string, kv ...any) { counts[name]++ })
	s, err := New(Config{CacheCap: 8, Observer: o, WideEventSample: 2,
		Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for key, payload := range map[string][]byte{"vs": trainedPayload(t), "parts": tuplePayload(t)} {
		if rec := do(t, s, "PUT", "/wrappers/"+key, payload); rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s: %d", key, rec.Code)
		}
	}
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	for i := 0; i < 10; i++ {
		if rec := do(t, s, "POST", "/extract", body); rec.Code != http.StatusOK {
			t.Fatalf("extract %d: %d", i, rec.Code)
		}
		if rec := do(t, s, "POST", "/extract/tuples/parts", []byte(tuplesPage)); rec.Code != http.StatusOK {
			t.Fatalf("tuples %d: %d", i, rec.Code)
		}
	}
	for i := 0; i < 10; i++ {
		if rec := do(t, s, "POST", "/extract/stream/vs", []byte(pageTop)); rec.Code != http.StatusOK {
			t.Fatalf("stream %d: %d", i, rec.Code)
		}
	}
	want := map[string]int{"serve.wrapper_put": 1, "serve.request": 5, "serve.tuples_request": 5, "serve.stream_request": 5}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("wide events = %v, want %v", counts, want)
	}
}

// TestWriteRoutesTraced: every direct write route echoes X-Resilex-Trace
// and records its span with the op and key, and shard.apply records the
// error of a failing op of any kind (here a stale promote).
func TestWriteRoutesTraced(t *testing.T) {
	o := obs.New()
	s, err := New(Config{CacheCap: 8, Observer: o, Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	payload := trainedPayload(t)
	for _, c := range []struct {
		method, path, span string
		body               []byte
		status             int
	}{
		{"PUT", "/wrappers/vs", "serve.put", payload, http.StatusCreated},
		{"PUT", "/wrappers/vs/canary", "serve.canary_put", payload, http.StatusCreated},
		{"POST", "/wrappers/vs/promote", "serve.promote", nil, http.StatusOK},
		{"POST", "/wrappers/vs/rollback", "serve.rollback", nil, http.StatusOK},
		{"DELETE", "/wrappers/vs", "serve.delete", nil, http.StatusOK},
		{"DELETE", "/wrappers/vs", "serve.delete", nil, http.StatusNotFound},
	} {
		rec := do(t, s, c.method, c.path, c.body)
		if rec.Code != c.status {
			t.Fatalf("%s %s: status %d, want %d: %s", c.method, c.path, rec.Code, c.status, rec.Body)
		}
		id := rec.Header().Get(obs.TraceHeader)
		spans := o.Trace.Trace(id)
		var sp *obs.SpanRecord
		for i := range spans {
			if spans[i].Name == c.span {
				sp = &spans[i]
			}
		}
		if id == "" || sp == nil {
			t.Fatalf("%s %s: trace %q spans %v, want a %s span", c.method, c.path, id, spanNames(spans), c.span)
		}
		if (c.status >= 400) != (sp.Error != "") {
			t.Errorf("%s %s: span error %q for status %d", c.method, c.path, sp.Error, c.status)
		}
		if got := fmt.Sprint(sp.SAttrs); !strings.Contains(got, "vs") {
			t.Errorf("%s %s: span attributes %s lack the key", c.method, c.path, got)
		}
	}

	do(t, s, "PUT", "/wrappers/vs", payload)
	do(t, s, "PUT", "/wrappers/vs/canary", payload)
	rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpPromote, Key: "vs", Version: 99}))
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale replicated promote: status %d: %s", rec.Code, rec.Body)
	}
	spans := o.Trace.Trace(rec.Header().Get(obs.TraceHeader))
	if len(spans) != 1 || spans[0].Name != "shard.apply" || !strings.Contains(spans[0].Error, "version conflict") {
		t.Fatalf("stale replicated promote: spans %+v, want shard.apply carrying the conflict", spans)
	}
}

// TestRequestTraceOutlivesLaterRequests: a request's trace stays
// retrievable from GET /debug/traces/{id} while its spans are in the
// tracer's ring, so 300 later requests (2 spans each, well inside the ring)
// do not evict it.
func TestRequestTraceOutlivesLaterRequests(t *testing.T) {
	s, _ := testServer(t)
	body, err := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	if err != nil {
		t.Fatal(err)
	}
	first := do(t, s, "POST", "/extract", body)
	id := first.Header().Get(obs.TraceHeader)
	if first.Code != http.StatusOK || id == "" {
		t.Fatalf("first extract: status %d, trace %q", first.Code, id)
	}
	for i := 0; i < 300; i++ {
		if rec := do(t, s, "POST", "/extract", body); rec.Code != http.StatusOK {
			t.Fatalf("extract %d: status %d", i, rec.Code)
		}
	}
	rec := do(t, s, "GET", "/debug/traces/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s after 300 requests: %d: %s", id, rec.Code, rec.Body)
	}
	var trace struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if names := spanNames(trace.Spans); len(names) == 0 || names[0] != "serve.extract" {
		t.Fatalf("first request's trace holds %v, want serve.extract first", names)
	}
}
