package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
)

// TraceMerger augments the locally-buffered spans of one trace with spans
// gathered elsewhere (the cluster router fetches the shards' halves of a
// trace so the ingress node can serve the assembled tree). It receives the
// local spans and returns the full set; nil means "local only".
type TraceMerger func(id string, local []SpanRecord) []SpanRecord

// Handler serves an observer over HTTP: Prometheus text exposition at
// /metrics (OpenMetrics with exemplars when the Accept header asks for
// application/openmetrics-text), the combined JSON snapshot (metrics +
// spans) at /metrics.json, trace retrieval under /debug/traces, and the
// runtime profiler under /debug/pprof/. Servers that expose more than
// observability (cmd/serve) mount their own routes on the returned mux;
// cmd/resilience -listen serves it as is.
func Handler(o *Observer) *http.ServeMux {
	return HandlerWith(o, nil)
}

// HandlerWith is Handler with a trace merger: GET /debug/traces/{id}
// responses pass through merge before rendering, letting multi-process
// deployments assemble cross-node traces at the ingress.
func HandlerWith(o *Observer, merge TraceMerger) *http.ServeMux {
	if o == nil {
		o = &Observer{} // nil-safe like the rest of the package: empty exposition
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			o.Metrics.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteSnapshotJSON(w, o)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		list := o.Trace.List()
		if list == nil {
			list = []TraceSummary{}
		}
		json.NewEncoder(w).Encode(struct {
			Traces []TraceSummary `json:"traces"`
		}{list})
	})
	mux.HandleFunc("/debug/traces/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
		if id == "" || strings.Contains(id, "/") {
			http.Error(w, `{"error":"bad trace id"}`, http.StatusBadRequest)
			return
		}
		spans := o.Trace.Trace(id)
		if merge != nil {
			spans = merge(id, spans)
		}
		if len(spans) == 0 {
			http.Error(w, `{"error":"unknown trace"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			TraceID string       `json:"traceId"`
			Spans   []SpanRecord `json:"spans"`
		}{id, spans})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
