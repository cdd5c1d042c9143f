package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanCapacity is the tracer ring-buffer size used by NewTracer(0).
const DefaultSpanCapacity = 4096

// Attr is one integer span attribute (states explored, transitions built,
// …). All construction-phase facts of interest are counts, so numeric
// attributes are int64 by design — no interface boxing on the hot path.
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// SAttr is one string span attribute (target node, cache tier, serving
// outcome) — the request-path facts that are names rather than counts.
type SAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as stored in the tracer's ring buffer.
// TraceID groups the spans of one end-to-end request across processes; it is
// empty for spans recorded outside a traced request (local constructions).
type SpanRecord struct {
	TraceID  string        `json:"traceId,omitempty"`
	ID       int64         `json:"id"`
	Parent   int64         `json:"parent,omitempty"` // 0 = root
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	SAttrs   []SAttr       `json:"sattrs,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Tracer records completed spans into a fixed-size ring buffer: the cost of
// tracing is bounded no matter how long the process runs, at the price of
// evicting the oldest spans. Evictions are counted (Dropped, and the
// obs_spans_dropped_total counter when one is wired via SetDropCounter) so
// silent span loss is observable. The ring is the one store of completed
// spans: Snapshot and WriteTree read all of it, Trace and List read the
// spans of traced requests by trace ID, and SetExport streams each traced
// span out as it ends.
type Tracer struct {
	nextID  atomic.Int64
	dropped atomic.Int64
	dropCtr atomic.Pointer[Counter]

	mu    sync.Mutex
	ring  []SpanRecord
	next  int   // ring write cursor
	total int64 // spans ever recorded

	// exportMu serializes export writes apart from mu, so a slow export
	// file never holds up recording into the ring.
	exportMu sync.Mutex
	export   *json.Encoder // JSONL sink for every traced span; nil = off
}

// TraceSummary is one row of the GET /debug/traces listing.
type TraceSummary struct {
	TraceID string    `json:"traceId"`
	Spans   int       `json:"spans"`
	Root    string    `json:"root,omitempty"`
	Start   time.Time `json:"start"`
}

// NewTracer returns a tracer holding up to capacity completed spans
// (DefaultSpanCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity)}
}

// SetDropCounter wires a registry counter that is incremented every time the
// ring overwrites a completed span (obs.New wires obs_spans_dropped_total).
// A nil tracer or nil counter is a no-op.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil || c == nil {
		return
	}
	t.dropCtr.Store(c)
}

// SetExport installs a JSONL sink: every traced span is appended to w as one
// JSON object per line as it ends (the -trace-export flag of cmd/serve);
// untraced spans are not exported. Writes are serialized and their errors
// swallowed — export is telemetry, not the request path. A nil w stops the
// export.
func (t *Tracer) SetExport(w io.Writer) {
	if t == nil {
		return
	}
	t.exportMu.Lock()
	defer t.exportMu.Unlock()
	t.export = nil
	if w != nil {
		t.export = json.NewEncoder(w)
	}
}

// Dropped reports how many completed spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

type spanCtxKey struct{}
type traceCtxKey struct{}

// TraceHeader is the HTTP header propagating trace context between
// processes: "<traceID>" or "<traceID>-<16-hex parent span id>".
const TraceHeader = "X-Resilex-Trace"

// TraceContext is the cross-process trace position: which trace the request
// belongs to and which span is the current parent.
type TraceContext struct {
	TraceID string
	SpanID  int64
}

// NewTraceID returns a fresh 128-bit trace identifier in lower-case hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// time-derived id rather than panic on a telemetry path.
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	return fmt.Sprintf("%x", b)
}

// randSpanID returns a random positive span id. Traced spans use random ids
// so spans minted by different processes can merge into one tree without
// collision; untraced spans keep the tracer's cheap local counter.
func randSpanID() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	id := int64(binary.BigEndian.Uint64(b[:]) >> 1)
	if id == 0 {
		id = 1
	}
	return id
}

// ContextWithTrace returns a context carrying the trace position: spans
// started under it record tc.TraceID and parent to tc.SpanID (when nonzero).
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if tc.TraceID == "" {
		return ctx
	}
	ctx = context.WithValue(ctx, traceCtxKey{}, tc.TraceID)
	if tc.SpanID != 0 {
		ctx = context.WithValue(ctx, spanCtxKey{}, tc.SpanID)
	}
	return ctx
}

// TraceFromContext reports the trace position carried by ctx: the trace ID
// and the current span (the would-be parent of the next span). Zero when ctx
// carries no trace.
func TraceFromContext(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	var tc TraceContext
	tc.TraceID, _ = ctx.Value(traceCtxKey{}).(string)
	if tc.TraceID == "" {
		return TraceContext{}
	}
	tc.SpanID, _ = ctx.Value(spanCtxKey{}).(int64)
	return tc
}

// FormatTraceHeader renders the trace position as the TraceHeader value.
// Empty when tc carries no trace.
func FormatTraceHeader(tc TraceContext) string {
	if tc.TraceID == "" {
		return ""
	}
	if tc.SpanID == 0 {
		return tc.TraceID
	}
	return fmt.Sprintf("%s-%016x", tc.TraceID, uint64(tc.SpanID))
}

// ParseTraceHeader decodes a TraceHeader value: "<traceID>" or
// "<traceID>-<16-hex span id>". Malformed values yield a zero TraceContext —
// an untrusted header must never fail a request.
func ParseTraceHeader(v string) TraceContext {
	v = strings.TrimSpace(v)
	if v == "" {
		return TraceContext{}
	}
	id := v
	var span int64
	if i := strings.LastIndexByte(v, '-'); i > 0 && len(v)-i-1 == 16 {
		var u uint64
		if _, err := fmt.Sscanf(v[i+1:], "%016x", &u); err == nil {
			id = v[:i]
			span = int64(u)
		}
	}
	if !validTraceID(id) {
		return TraceContext{}
	}
	return TraceContext{TraceID: id, SpanID: span}
}

// JoinTrace is the trace ingress of an HTTP front (a shard or the cluster
// router): it joins the trace propagated in TraceHeader or mints a fresh
// trace ID, echoes the ID in the response header so the caller can fetch
// the assembled trace from GET /debug/traces/{id}, and returns the request
// context carrying o and the trace position.
func JoinTrace(w http.ResponseWriter, r *http.Request, o *Observer) (context.Context, TraceContext) {
	tc := ParseTraceHeader(r.Header.Get(TraceHeader))
	if tc.TraceID == "" {
		tc.TraceID = NewTraceID()
	}
	w.Header().Set(TraceHeader, tc.TraceID)
	return ContextWithTrace(NewContext(r.Context(), o), tc), tc
}

// validTraceID accepts lower-case hex ids between 8 and 64 chars — wide
// enough for foreign tracers, tight enough to reject junk.
func validTraceID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// StartSpan opens a span named name whose parent is the span carried by ctx
// (if any) and returns a derived context carrying the new span. When ctx
// carries a trace (ContextWithTrace), the span joins it: it records the
// trace ID and uses a collision-free random span id so trees merge across
// processes. The span is recorded when End is called. A nil tracer returns
// ctx unchanged and a nil (no-op) span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var parent int64
	if p, ok := ctx.Value(spanCtxKey{}).(int64); ok {
		parent = p
	}
	traceID, _ := ctx.Value(traceCtxKey{}).(string)
	var id int64
	if traceID != "" {
		id = randSpanID()
	} else {
		id = t.nextID.Add(1)
	}
	return context.WithValue(ctx, spanCtxKey{}, id), &Span{
		t: t, traceID: traceID, id: id, parent: parent, name: name, start: time.Now(),
	}
}

// record appends one completed span, evicting the oldest at capacity, and
// exports it when it is traced.
func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	t.total++
	evicted := false
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.next] = r
		t.next = (t.next + 1) % len(t.ring)
		evicted = true
	}
	t.mu.Unlock()
	if evicted {
		t.dropped.Add(1)
		t.dropCtr.Load().Inc()
	}
	if r.TraceID != "" {
		t.exportMu.Lock()
		if t.export != nil {
			_ = t.export.Encode(r) //nolint:errcheck // best-effort telemetry sink
		}
		t.exportMu.Unlock()
	}
}

// Snapshot returns the buffered spans in completion order (oldest first).
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Trace returns the buffered spans of one trace, oldest start first (nil
// when the ring holds none). A trace stays retrievable while its spans are
// in the ring; one with more spans than the ring holds comes back with its
// newest.
func (t *Tracer) Trace(id string) []SpanRecord {
	if t == nil || id == "" {
		return nil
	}
	var out []SpanRecord
	t.mu.Lock()
	for i := range t.ring {
		if t.ring[i].TraceID == id {
			out = append(out, t.ring[i])
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// List summarizes every trace with spans in the ring, latest start first.
func (t *Tracer) List() []TraceSummary {
	if t == nil {
		return nil
	}
	var out []TraceSummary
	at := map[string]int{} // trace ID → index in out
	t.mu.Lock()
	for i := range t.ring {
		s := &t.ring[i]
		if s.TraceID == "" {
			continue
		}
		j, ok := at[s.TraceID]
		if !ok {
			j = len(out)
			at[s.TraceID] = j
			out = append(out, TraceSummary{TraceID: s.TraceID, Start: s.Start})
		}
		sum := &out[j]
		sum.Spans++
		if s.Start.Before(sum.Start) {
			sum.Start = s.Start
		}
		if s.Parent == 0 {
			sum.Root = s.Name
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Total reports how many spans were ever recorded (including evicted ones).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// WriteTree renders the buffered spans as an indented parent/child tree,
// children ordered by start time. Spans whose parent was evicted from the
// ring render as roots.
func (t *Tracer) WriteTree(w io.Writer) error {
	spans := t.Snapshot()
	children := map[int64][]SpanRecord{}
	present := map[int64]bool{}
	for _, s := range spans {
		present[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range spans {
		if s.Parent != 0 && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(xs []SpanRecord) {
		sort.Slice(xs, func(i, j int) bool { return xs[i].Start.Before(xs[j].Start) })
	}
	byStart(roots)
	var render func(s SpanRecord, depth int) error
	render = func(s SpanRecord, depth int) error {
		var attrs strings.Builder
		for _, a := range s.Attrs {
			fmt.Fprintf(&attrs, " %s=%d", a.Key, a.Value)
		}
		for _, a := range s.SAttrs {
			fmt.Fprintf(&attrs, " %s=%s", a.Key, a.Value)
		}
		if s.Error != "" {
			fmt.Fprintf(&attrs, " error=%q", s.Error)
		}
		if _, err := fmt.Fprintf(w, "%s%s %v%s\n",
			strings.Repeat("  ", depth), s.Name, s.Duration.Round(time.Microsecond), attrs.String()); err != nil {
			return err
		}
		kids := children[s.ID]
		byStart(kids)
		for _, k := range kids {
			if err := render(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := render(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// Span is one in-flight timed operation. SetAttr, SetStr, SetError and End
// must be called from the goroutine that started the span (spans are not
// shared); the tracer itself is safe for concurrent use.
type Span struct {
	t       *Tracer
	traceID string
	id      int64
	parent  int64
	name    string
	start   time.Time
	attrs   []Attr
	sattrs  []SAttr
	errMsg  string
	ended   bool
}

// ID returns the span's id (0 on nil) — the parent carried across process
// boundaries in the trace header.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the trace the span belongs to ("" on nil or untraced).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SetAttr attaches (or overwrites) an integer attribute. No-op on nil.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetStr attaches (or overwrites) a string attribute. No-op on nil.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	for i := range s.sattrs {
		if s.sattrs[i].Key == key {
			s.sattrs[i].Value = v
			return
		}
	}
	s.sattrs = append(s.sattrs, SAttr{Key: key, Value: v})
}

// SetError marks the span failed with the error's message. A nil error (or
// nil span) is a no-op, so callers can pass the outcome unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End records the span into the tracer's ring buffer and returns its
// duration. Safe to call on a nil span; calling twice records once.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	s.t.record(SpanRecord{
		TraceID: s.traceID, ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: d, Attrs: s.attrs, SAttrs: s.sattrs, Error: s.errMsg,
	})
	return d
}
