package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

const testTraceID = "aaaabbbbccccdddd"

// TestTraceStoreAssembly: spans started under a trace context land in the
// observer's tracer and come back grouped by trace ID, with cross-span
// parentage intact; untraced spans stay out of the trace views.
func TestTraceStoreAssembly(t *testing.T) {
	o := New()
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: testTraceID})
	ctx, root := o.StartSpan(ctx, "root")
	_, child := o.StartSpan(ctx, "child")
	child.SetStr("tier", "memory")
	child.End()
	root.End()
	_, loose := o.StartSpan(context.Background(), "untraced")
	loose.End()

	spans := o.Trace.Trace(testTraceID)
	if len(spans) != 2 {
		t.Fatalf("stored spans = %d, want 2", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		if s.TraceID != testTraceID {
			t.Errorf("span %s trace = %q", s.Name, s.TraceID)
		}
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root id %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if sa := byName["child"].SAttrs; len(sa) != 1 || sa[0] != (SAttr{"tier", "memory"}) {
		t.Errorf("child sattrs = %v", sa)
	}
	list := o.Trace.List()
	if len(list) != 1 || list[0].TraceID != testTraceID || list[0].Spans != 2 || list[0].Root != "root" {
		t.Fatalf("trace list = %+v, want one root trace with 2 spans", list)
	}
}

// TestTraceStoreExport: the JSONL sink receives every traced span as one JSON
// object per line.
func TestTraceStoreExport(t *testing.T) {
	ts := NewTracer(0)
	var b strings.Builder
	ts.SetExport(&b)
	ts.record(SpanRecord{TraceID: testTraceID, ID: 1, Name: "a"})
	ts.record(SpanRecord{TraceID: testTraceID, ID: 2, Name: "b"})
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("export lines = %d, want 2:\n%s", len(lines), b.String())
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("export line not JSON: %v", err)
	}
	if rec.Name != "b" || rec.TraceID != testTraceID {
		t.Fatalf("exported record = %+v", rec)
	}
	ts.SetExport(nil)
	ts.record(SpanRecord{TraceID: testTraceID, ID: 3, Name: "c"})
	if strings.Count(b.String(), "\n") != 2 {
		t.Fatal("export kept writing after SetExport(nil)")
	}
}

// TestTraceViewsReadTheRing: Trace, List and the export are views of the one
// ring. Each ended span is recorded once; the views and the export see the
// traced spans, grouped by trace ID, and none of the untraced ones.
func TestTraceViewsReadTheRing(t *testing.T) {
	tr := NewTracer(0)
	var export strings.Builder
	tr.SetExport(&export)
	const other = "1111111111111111"

	// Trace testTraceID: root → child → grand. Trace other: root → child.
	// Two untraced spans end in between.
	ctx, root := tr.StartSpan(ContextWithTrace(context.Background(), TraceContext{TraceID: testTraceID}), "root")
	cctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(cctx, "grand")
	octx, oroot := tr.StartSpan(ContextWithTrace(context.Background(), TraceContext{TraceID: other}), "other.root")
	_, ochild := tr.StartSpan(octx, "other.child")
	_, loose1 := tr.StartSpan(context.Background(), "untraced")
	_, loose2 := tr.StartSpan(context.Background(), "untraced")
	for _, sp := range []*Span{grand, loose1, child, ochild, root, loose2, oroot} {
		sp.End()
	}
	const traced, untraced = 5, 2

	if got := tr.Total(); got != traced+untraced {
		t.Fatalf("Total = %d, want %d", got, traced+untraced)
	}
	seen := map[int64]int{}
	for _, s := range tr.Snapshot() {
		seen[s.ID]++
	}
	if len(seen) != traced+untraced {
		t.Fatalf("Snapshot holds %d distinct spans, want %d", len(seen), traced+untraced)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("Snapshot holds span %d %d times", id, n)
		}
	}

	spans := tr.Trace(testTraceID)
	if len(spans) != 3 {
		t.Fatalf("Trace = %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for i, s := range spans {
		if i > 0 && s.Start.Before(spans[i-1].Start) {
			t.Fatalf("Trace not oldest start first: %v", spans)
		}
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 || byName["child"].Parent != byName["root"].ID || byName["grand"].Parent != byName["child"].ID {
		t.Fatalf("Trace lost parentage: %+v", spans)
	}
	if got := tr.Trace(""); got != nil {
		t.Fatalf(`Trace("") = %v, want nil: untraced spans are in no trace`, got)
	}

	list := tr.List()
	if len(list) != 2 {
		t.Fatalf("List = %+v, want 2 traces", list)
	}
	want := map[string]TraceSummary{
		testTraceID: {TraceID: testTraceID, Spans: 3, Root: "root", Start: byName["root"].Start},
		other:       {TraceID: other, Spans: 2, Root: "other.root"},
	}
	for _, sum := range list {
		w, ok := want[sum.TraceID]
		if !ok || sum.Spans != w.Spans || sum.Root != w.Root {
			t.Fatalf("List row %+v, want %+v", sum, w)
		}
		if sum.TraceID == testTraceID && !sum.Start.Equal(w.Start) {
			t.Fatalf("List start = %v, want the root's %v", sum.Start, w.Start)
		}
		delete(want, sum.TraceID)
	}

	lines := strings.Split(strings.TrimSpace(export.String()), "\n")
	if len(lines) != traced {
		t.Fatalf("export lines = %d, want %d:\n%s", len(lines), traced, export.String())
	}
	for _, line := range lines {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.TraceID == "" {
			t.Fatalf("export line %q: err %v, want a traced span", line, err)
		}
	}

	// A nil tracer's views are inert, like the rest of the package.
	var nilTracer *Tracer
	nilTracer.SetExport(&export)
	if nilTracer.Trace(testTraceID) != nil || nilTracer.List() != nil {
		t.Fatal("nil tracer views not inert")
	}
}

// TestTraceRetentionFollowsRing pins the retention rule: a trace is kept
// while its spans are in the ring, so a trace with more spans than the ring
// holds comes back with its newest.
func TestTraceRetentionFollowsRing(t *testing.T) {
	tr := NewTracer(3)
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: testTraceID})
	for i := 0; i < 5; i++ {
		_, sp := tr.StartSpan(ctx, fmt.Sprintf("s%d", i))
		sp.End()
	}
	var names []string
	for _, s := range tr.Trace(testTraceID) {
		names = append(names, s.Name)
	}
	if strings.Join(names, " ") != "s2 s3 s4" {
		t.Fatalf("Trace = %v, want the newest 3 spans s2 s3 s4", names)
	}
	if list := tr.List(); len(list) != 1 || list[0].Spans != 3 {
		t.Fatalf("List = %+v, want one trace of 3 spans", list)
	}
}

// TestTraceHeaderRoundTrip pins the wire format: bare trace IDs, trace+span
// positions, and the malformed inputs an untrusted header can carry.
func TestTraceHeaderRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: testTraceID, SpanID: 0x1f}
	got := ParseTraceHeader(FormatTraceHeader(tc))
	if got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
	if v := FormatTraceHeader(tc); v != testTraceID+"-000000000000001f" {
		t.Fatalf("formatted header = %q", v)
	}
	if got := ParseTraceHeader(testTraceID); got != (TraceContext{TraceID: testTraceID}) {
		t.Fatalf("bare trace ID parse = %+v", got)
	}
	if FormatTraceHeader(TraceContext{}) != "" {
		t.Fatal("zero context formats non-empty")
	}
	for _, bad := range []string{
		"", "short", "UPPERCASEID00001", "not hex at all!",
		testTraceID + "-zzzz", strings.Repeat("a", 65),
	} {
		if got := ParseTraceHeader(bad); got != (TraceContext{}) {
			t.Errorf("ParseTraceHeader(%q) = %+v, want zero", bad, got)
		}
	}
	// A trailing segment that is not 16 hex chars stays part of the ID and
	// fails validation ('-' is not hex).
	if got := ParseTraceHeader(testTraceID + "-12"); got != (TraceContext{}) {
		t.Errorf("short span suffix parse = %+v, want zero", got)
	}
}

// TestTracedSpanRandomIDs: spans inside a trace use random IDs (so two
// processes' spans merge without collision), untraced spans keep the cheap
// counter.
func TestTracedSpanRandomIDs(t *testing.T) {
	tr := NewTracer(8)
	_, plain := tr.StartSpan(context.Background(), "plain")
	if plain.ID() != 1 {
		t.Fatalf("untraced span id = %d, want counter id 1", plain.ID())
	}
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: testTraceID})
	_, traced := tr.StartSpan(ctx, "traced")
	if traced.ID() <= 0 {
		t.Fatalf("traced span id = %d, want positive random", traced.ID())
	}
	if traced.TraceID() != testTraceID {
		t.Fatalf("traced span trace = %q", traced.TraceID())
	}
	plain.End()
	traced.End()
}

// TestSpanDropCounter: ring evictions increment the wired drop counter (the
// obs_spans_dropped_total family) and the tracer's own Dropped count.
func TestSpanDropCounter(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(2)
	tr.SetDropCounter(r.Counter("obs_spans_dropped_total"))
	for i := 0; i < 5; i++ {
		_, sp := tr.StartSpan(context.Background(), "s")
		sp.End()
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	if got := r.Counter("obs_spans_dropped_total").Value(); got != 3 {
		t.Fatalf("obs_spans_dropped_total = %d, want 3", got)
	}
	// obs.New wires the counter automatically.
	o := New()
	if o.Metrics.Counter("obs_spans_dropped_total") == nil {
		t.Fatal("observer missing the drop counter")
	}
}

// TestHandlerTraceEndpoints drives the /debug/traces surface: the listing,
// single-trace retrieval, unknown and malformed IDs, and the merge hook that
// lets a router graft peer spans into the response.
func TestHandlerTraceEndpoints(t *testing.T) {
	o := New()
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: testTraceID})
	_, sp := o.StartSpan(ctx, "serve.extract")
	sp.End()

	h := Handler(o)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != testTraceID {
		t.Fatalf("trace listing = %+v", list)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+testTraceID, nil))
	if rec.Code != 200 {
		t.Fatalf("trace fetch: %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		TraceID string       `json:"traceId"`
		Spans   []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != testTraceID || len(body.Spans) != 1 || body.Spans[0].Name != "serve.extract" {
		t.Fatalf("trace body = %+v", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace: %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/a/b", nil))
	if rec.Code != 400 {
		t.Fatalf("malformed trace id: %d, want 400", rec.Code)
	}

	// The merge hook augments the local spans — the cross-process assembly
	// seam the cluster router plugs into.
	merged := HandlerWith(o, func(id string, local []SpanRecord) []SpanRecord {
		return append(local, SpanRecord{TraceID: id, ID: 77, Name: "router.attempt"})
	})
	rec = httptest.NewRecorder()
	merged.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+testTraceID, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Spans) != 2 {
		t.Fatalf("merged spans = %d, want 2", len(body.Spans))
	}
}

// TestHandlerMetricsNegotiation: /metrics serves classic Prometheus text by
// default and the OpenMetrics exposition (exemplars, # EOF) when the Accept
// header asks for it.
func TestHandlerMetricsNegotiation(t *testing.T) {
	o := New()
	o.Histogram("serve_extract_duration_us").ObserveExemplar(3, testTraceID)
	h := Handler(o)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	plain := rec.Body.String()
	if strings.Contains(plain, "# EOF") || strings.Contains(plain, "trace_id") {
		t.Fatalf("default exposition leaked OpenMetrics syntax:\n%s", plain)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	om := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics content type = %q", ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition not terminated:\n%s", om)
	}
	if !strings.Contains(om, `# {trace_id="`+testTraceID+`"} 3`) {
		t.Fatalf("OpenMetrics exposition missing the exemplar:\n%s", om)
	}
}
