package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"resilex/internal/obs"
)

// streamRequest posts body to /extract/stream/{key} through a reader that
// yields tiny chunks, so the handler exercises real chunked streaming
// rather than a single Read.
func streamRequest(t *testing.T, s *Server, key, body string, chunk int) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/extract/stream/"+key,
		&chunkedBody{data: []byte(body), chunk: chunk})
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, req)
	return rec
}

type chunkedBody struct {
	data  []byte
	chunk int
}

func (r *chunkedBody) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func TestServeExtractStream(t *testing.T) {
	s, _ := testServer(t)
	for _, chunk := range []int{7, 1 << 20} {
		rec := streamRequest(t, s, "vs", pageTop, chunk)
		if rec.Code != http.StatusOK {
			t.Fatalf("chunk %d: status %d: %s", chunk, rec.Code, rec.Body)
		}
		var res extractResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Key != "vs" || !strings.Contains(res.Source, `type="text"`) {
			t.Fatalf("chunk %d: result %+v, want text-input extraction", chunk, res)
		}
		if res.Start <= 0 || res.End <= res.Start {
			t.Errorf("chunk %d: span [%d,%d) not positive", chunk, res.Start, res.End)
		}
	}
	// The streaming result must match the batch route's byte-for-byte.
	batch := do(t, s, "POST", "/extract",
		[]byte(`{"docs":[{"key":"vs","html":`+mustJSON(pageTop)+`}]}`))
	var bresp struct {
		Results []extractResult `json:"results"`
	}
	if err := json.Unmarshal(batch.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	var sres extractResult
	rec := streamRequest(t, s, "vs", pageTop, 13)
	if err := json.Unmarshal(rec.Body.Bytes(), &sres); err != nil {
		t.Fatal(err)
	}
	b := bresp.Results[0]
	if sres.Source != b.Source || sres.Start != b.Start || sres.End != b.End || sres.TokenIndex != b.TokenIndex {
		t.Fatalf("stream %+v, batch %+v", sres, b)
	}
}

func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestServeExtractStreamMiss(t *testing.T) {
	s, _ := testServer(t)
	rec := streamRequest(t, s, "vs", "<html><body>nothing here</body></html>", 9)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res extractResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Error == "" {
		t.Fatalf("result %+v, want extraction miss with error", res)
	}
}

func TestServeExtractStreamUnknownKey(t *testing.T) {
	s, _ := testServer(t)
	if rec := streamRequest(t, s, "nosuch", pageTop, 64); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", rec.Code)
	}
}

func TestServeExtractStreamTooLarge(t *testing.T) {
	s, _ := testServer(t)
	s.maxBody = 16
	rec := streamRequest(t, s, "vs", pageTop, 8)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body)
	}
}

func TestServeExtractStreamMetrics(t *testing.T) {
	s, _ := testServer(t)
	if rec := streamRequest(t, s, "vs", pageTop, 11); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if v := s.obs.Counter("extract_stream_runs_total").Value(); v != 1 {
		t.Errorf("extract_stream_runs_total = %d, want 1", v)
	}
	if v := s.obs.Counter("extract_stream_chunks_total").Value(); v < 5 {
		t.Errorf("extract_stream_chunks_total = %d, want several at 11-byte chunks", v)
	}
}

// TestServeExtractStreamContentType: the stream route admits its body like
// the tuples route — a declared media type other than text/html is a 415,
// counted under serve_rejected_total{reason="content_type"}, while text/html
// with parameters streams as usual.
func TestServeExtractStreamContentType(t *testing.T) {
	s, _ := testServer(t)
	for _, c := range []struct {
		ctype  string
		status int
	}{
		{"application/json", http.StatusUnsupportedMediaType},
		{"text/html; charset=utf-8", http.StatusOK},
	} {
		req := httptest.NewRequest("POST", "/extract/stream/vs", strings.NewReader(pageTop))
		req.Header.Set("Content-Type", c.ctype)
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Errorf("Content-Type %s: status %d, want %d: %s", c.ctype, rec.Code, c.status, rec.Body)
		}
	}
	if n := s.obs.Counter(obs.WithLabels("serve_rejected_total", "reason", "content_type")).Value(); n != 1 {
		t.Errorf("content_type rejections = %d, want 1", n)
	}
}

// TestServeExtractStreamDocBytes: the stream route counts the page bytes it
// read on its serve.stream span and its serve.stream_request wide event,
// like the batch and tuples routes.
func TestServeExtractStreamDocBytes(t *testing.T) {
	s, _ := testServer(t)
	var event map[string]any
	s.obs.Log = obs.FuncLogger(func(name string, kv ...any) {
		if name == "serve.stream_request" {
			event = map[string]any{}
			for i := 0; i+1 < len(kv); i += 2 {
				event[kv[i].(string)] = kv[i+1]
			}
		}
	})
	rec := streamRequest(t, s, "vs", pageTop, 7)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	want := int64(len(pageTop))
	if event["doc_bytes"] != want {
		t.Errorf("wide event doc_bytes = %v, want %d", event["doc_bytes"], want)
	}
	var got int64 = -1
	for _, sp := range s.obs.Trace.Trace(rec.Header().Get(obs.TraceHeader)) {
		for _, a := range sp.Attrs {
			if sp.Name == "serve.stream" && a.Key == "doc_bytes" {
				got = a.Value
			}
		}
	}
	if got != want {
		t.Errorf("serve.stream doc_bytes = %d, want %d", got, want)
	}
}
