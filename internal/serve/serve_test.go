package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

const pageTop = `<P>
<H1>Virtual Supplier, Inc.</H1>
<P>
<form method="post" action="search.cgi">
<input type="image" align="left" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<br />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form>`

const pageBottom = `<table>
<tr><td><h1>Virtual Supplier, Inc.</h1></td></tr>
<tr><td><form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form></td></tr>
</table>`

// trainedPayload trains the shared test wrapper and returns its persisted
// JSON.
func trainedPayload(t *testing.T) []byte {
	t.Helper()
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: pageTop, Target: wrapper.TargetMarker()},
		{HTML: pageBottom, Target: wrapper.TargetMarker()},
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

// testServer boots a memory-only server serving the trained wrapper under
// "vs" the way a deploy-time fleet file ships a key: active, with no
// versions recorded.
func testServer(t *testing.T) (*Server, []byte) {
	t.Helper()
	payload := trainedPayload(t)
	w, err := wrapper.Load(payload, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := wrapper.NewFleet()
	f.Add("vs", w)
	fleetData, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{CacheCap: 8, FleetData: fleetData, Observer: obs.New(), Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return s, payload
}

func do(t *testing.T, s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	return rec
}

func TestServeExtractBatch(t *testing.T) {
	s, _ := testServer(t)
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{
		{Key: "vs", HTML: pageTop},
		{Key: "nosuch", HTML: pageTop},
		{Key: "vs", HTML: "<html>nothing</html>"},
		{Key: "vs", HTML: pageBottom},
	}})
	rec := do(t, s, "POST", "/extract", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []extractResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Index != i {
			t.Errorf("results out of order: %d at %d", r.Index, i)
		}
	}
	for _, i := range []int{0, 3} {
		r := resp.Results[i]
		if !r.OK || !strings.Contains(r.Source, `type="text"`) {
			t.Errorf("result %d = %+v, want text-input extraction", i, r)
		}
	}
	if resp.Results[1].OK || !strings.Contains(resp.Results[1].Error, "no wrapper registered") {
		t.Errorf("result 1 = %+v, want unknown-key error", resp.Results[1])
	}
	if resp.Results[2].OK || resp.Results[2].Error == "" {
		t.Errorf("result 2 = %+v, want extraction failure", resp.Results[2])
	}
	if rec := do(t, s, "POST", "/extract", []byte("{")); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rec.Code)
	}
}

func TestServePutWrapperAndHealthz(t *testing.T) {
	s, payload := testServer(t)
	// Register the same persisted wrapper under two new keys: the second
	// registration must hit the compiled-artifact cache. (testServer's seed
	// load already primed one miss.)
	before := s.Cache().Stats()
	for _, key := range []string{"mirror1", "mirror2"} {
		rec := do(t, s, "PUT", "/wrappers/"+key, payload)
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s: status %d: %s", key, rec.Code, rec.Body)
		}
	}
	if got := len(s.Sites()); got != 3 {
		t.Errorf("sites = %d, want 3", got)
	}
	st := s.Cache().Stats()
	if hits := st.Hits - before.Hits; hits != 2 {
		t.Errorf("cache hits for re-registrations = %d, want 2", hits)
	}
	if misses := st.Misses - before.Misses; misses != 0 {
		t.Errorf("cache misses for re-registrations = %d, want 0", misses)
	}
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "mirror2", HTML: pageTop}}})
	rec := do(t, s, "POST", "/extract", body)
	var resp struct {
		Results []extractResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || !resp.Results[0].OK {
		t.Fatalf("extraction via registered wrapper failed: %s", rec.Body)
	}
	if rec := do(t, s, "PUT", "/wrappers/bad", []byte("{")); rec.Code != http.StatusBadRequest {
		t.Errorf("bad payload: status %d, want 400", rec.Code)
	}

	health := do(t, s, "GET", "/healthz", nil)
	if health.Code != http.StatusOK {
		t.Fatalf("healthz: %d", health.Code)
	}
	var h struct {
		Status string `json:"status"`
		Sites  int    `json:"sites"`
	}
	if err := json.Unmarshal(health.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sites != 3 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestServeDeleteWrapper(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, "DELETE", "/wrappers/nosuch", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown key: status %d, want 404", rec.Code)
	}
	rec := do(t, s, "DELETE", "/wrappers/vs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", rec.Code, rec.Body)
	}
	if got := len(s.Sites()); got != 0 {
		t.Errorf("sites after DELETE = %d, want 0", got)
	}
	// The key is gone: a second DELETE is a 404, and extraction fails.
	if rec := do(t, s, "DELETE", "/wrappers/vs", nil); rec.Code != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", rec.Code)
	}
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	erec := do(t, s, "POST", "/extract", body)
	var resp struct {
		Results []extractResult `json:"results"`
	}
	if err := json.Unmarshal(erec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].OK {
		t.Errorf("extract after delete = %s, want unknown-key failure", erec.Body)
	}
}

// TestServeBodyLimits covers the request-hardening path: an oversized body
// is 413, a foreign Content-Type is 415, an undecodable extract body or
// ?version= guard is 400, and every rejection is counted by reason.
func TestServeBodyLimits(t *testing.T) {
	payload := trainedPayload(t)
	o := obs.New()
	s, err := New(Config{CacheCap: 8, MaxBodyBytes: 1024, Observer: o, Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4096)
	for _, path := range []string{"/extract", "/wrappers/vs"} {
		method := "POST"
		if strings.HasPrefix(path, "/wrappers") {
			method = "PUT"
		}
		if rec := do(t, s, method, path, big); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s oversized: status %d, want 413", method, path, rec.Code)
		}
	}

	req := httptest.NewRequest("PUT", "/wrappers/vs", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Errorf("foreign Content-Type: status %d, want 415", rec.Code)
	}

	// Declared application/json (with parameters) is accepted.
	req = httptest.NewRequest("PUT", "/wrappers/vs", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Errorf("json Content-Type: status %d, want 201: %s", rec.Code, rec.Body)
	}

	if rec := do(t, s, "POST", "/extract", []byte("{")); rec.Code != http.StatusBadRequest {
		t.Errorf("undecodable extract body: status %d, want 400", rec.Code)
	}
	for _, path := range []string{"/wrappers/vs/promote?version=two", "/wrappers/vs/rollback?version=-1"} {
		if rec := do(t, s, "POST", path, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", path, rec.Code)
		}
	}

	snap := o.Metrics.Snapshot()
	if n := snap.Counters[obs.WithLabels("serve_rejected_total", "reason", "decode")]; n != 3 {
		t.Errorf("decode rejections = %d, want 3", n)
	}
	if n := snap.Counters[obs.WithLabels("serve_rejected_total", "reason", "body_too_large")]; n != 2 {
		t.Errorf("body_too_large rejections = %d, want 2", n)
	}
	if n := snap.Counters[obs.WithLabels("serve_rejected_total", "reason", "content_type")]; n != 1 {
		t.Errorf("content_type rejections = %d, want 1", n)
	}
}

// TestServeClusterApply drives the replication endpoint directly: a framed
// put registers the wrapper, a framed delete removes it, and corrupt or
// foreign bodies are rejected without touching the fleet.
func TestServeClusterApply(t *testing.T) {
	s, payload := trainedServerNoVS(t)

	put := cluster.EncodeOp(cluster.Op{Kind: cluster.OpPut, Key: "site-a", Payload: payload})
	rec := doFrame(t, s, put)
	if rec.Code != http.StatusCreated {
		t.Fatalf("apply put: status %d: %s", rec.Code, rec.Body)
	}
	if s.Active("site-a") == nil {
		t.Fatal("wrapper not registered via cluster apply")
	}

	del := cluster.EncodeOp(cluster.Op{Kind: cluster.OpDelete, Key: "site-a"})
	if rec := doFrame(t, s, del); rec.Code != http.StatusOK {
		t.Fatalf("apply delete: status %d: %s", rec.Code, rec.Body)
	}
	if s.Active("site-a") != nil {
		t.Fatal("wrapper still registered after replicated delete")
	}
	if rec := doFrame(t, s, del); rec.Code != http.StatusNotFound {
		t.Errorf("replicated delete of unknown key: status %d, want 404", rec.Code)
	}

	// A corrupted frame (checksum broken) is a 400; a non-frame body is 415.
	torn := append([]byte(nil), put...)
	torn[len(torn)-1] ^= 0xFF
	if rec := doFrame(t, s, torn); rec.Code != http.StatusBadRequest {
		t.Errorf("corrupt frame: status %d, want 400", rec.Code)
	}
	if rec := doFrame(t, s, []byte("not a frame")); rec.Code != http.StatusUnsupportedMediaType {
		t.Errorf("non-frame body: status %d, want 415", rec.Code)
	}
}

// trainedServerNoVS builds a fresh memory-only server with no wrappers.
func trainedServerNoVS(t *testing.T) (*Server, []byte) {
	t.Helper()
	payload := trainedPayload(t)
	s, err := New(Config{CacheCap: 8, Observer: obs.New(), Batch: wrapper.BatchOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return s, payload
}

// doFrame posts a framed cluster op with the frame Content-Type.
func doFrame(t *testing.T, s *Server, frame []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/cluster/apply", bytes.NewReader(frame))
	req.Header.Set("Content-Type", cluster.OpContentType)
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	return rec
}

func TestServeMetricsExposed(t *testing.T) {
	s, _ := testServer(t)
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	do(t, s, "POST", "/extract", body)
	rec := do(t, s, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	for _, want := range []string{"serve_requests_total", "wrapper_batch_docs_total"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
