package obs

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"time"
)

// Observer bundles the three observation surfaces: a metrics registry, a
// span tracer, and a structured event logger. Any field may be nil — the
// accessor methods degrade to no-ops — and a nil *Observer is itself fully
// inert, so instrumented code never branches on "is observation on". The
// tracer's ring is the observer's one store of completed spans: the
// /metrics.json and -trace dumps, GET /debug/traces and -trace-export all
// read it.
type Observer struct {
	Metrics *Registry
	Trace   *Tracer
	Log     Logger
}

// New returns an observer with a fresh registry, a default-capacity tracer
// whose ring overwrites count into obs_spans_dropped_total, and no event
// logger.
func New() *Observer {
	o := &Observer{Metrics: NewRegistry(), Trace: NewTracer(0)}
	o.Trace.SetDropCounter(o.Metrics.Counter("obs_spans_dropped_total"))
	return o
}

// Counter returns the named counter (nil, hence no-op, when the observer or
// its registry is nil).
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// StartSpan opens a span on the observer's tracer; see Tracer.StartSpan.
func (o *Observer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if o == nil {
		return ctx, nil
	}
	return o.Trace.StartSpan(ctx, name)
}

// Event forwards a structured event to the logger, if one is installed.
func (o *Observer) Event(name string, kv ...any) {
	if o == nil || o.Log == nil {
		return
	}
	o.Log.Event(name, kv...)
}

type obsCtxKey struct{}

// NewContext returns a context carrying the observer; every instrumented
// construction running under it records metrics and spans.
func NewContext(ctx context.Context, o *Observer) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, obsCtxKey{}, o)
}

// FromContext extracts the observer carried by ctx, or nil (inert) when ctx
// is nil or carries none.
func FromContext(ctx context.Context) *Observer {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(obsCtxKey{}).(*Observer)
	return o
}

// Phase is the per-construction instrumentation handle: a span plus a
// duration histogram named after it. A nil phase accepts every call.
type Phase struct {
	o     *Observer
	sp    *Span
	name  string
	start time.Time
}

// StartPhase opens an instrumented phase named name (dotted span-style,
// e.g. "machine.determinize") under the observer carried by ctx, returning a
// derived context that parents nested phases. Without an observer it returns
// ctx unchanged and a nil phase.
func StartPhase(ctx context.Context, name string) (context.Context, *Phase) {
	o := FromContext(ctx)
	if o == nil {
		return ctx, nil
	}
	ctx, sp := o.StartSpan(ctx, name)
	return ctx, &Phase{o: o, sp: sp, name: name, start: time.Now()}
}

// Attr attaches an integer attribute to the phase's span.
func (p *Phase) Attr(key string, v int64) {
	if p == nil {
		return
	}
	p.sp.SetAttr(key, v)
}

// Str attaches a string attribute to the phase's span.
func (p *Phase) Str(key, v string) {
	if p == nil {
		return
	}
	p.sp.SetStr(key, v)
}

// Fail marks the phase's span as errored.
func (p *Phase) Fail(err error) {
	if p == nil {
		return
	}
	p.sp.SetError(err)
}

// Count adds n to the named registry counter (skipping zero adds).
func (p *Phase) Count(name string, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.o.Counter(name).Add(n)
}

// End closes the phase: the span is recorded and the phase duration is
// observed into the phase's histogram (see Registry.phaseHistogram).
func (p *Phase) End() {
	if p == nil {
		return
	}
	p.o.Metrics.phaseHistogram(p.name).Observe(time.Since(p.start).Microseconds())
	p.sp.End()
}

// snapshotSpan is the JSON shape of one span in WriteSnapshotJSON output.
type snapshotSpan struct {
	ID         int64             `json:"id"`
	Parent     int64             `json:"parent,omitempty"`
	TraceID    string            `json:"traceId,omitempty"`
	Name       string            `json:"name"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]int64  `json:"attrs,omitempty"`
	Strs       map[string]string `json:"strs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Dump writes what an observed run collected, as the CLIs' -trace,
// -metrics, -metrics-format and -metrics-out flags ask: the span tree
// (trace) to stderr, and the metric snapshot (metrics) to the file outPath,
// or to stderr when outPath is empty — Prometheus text when format is
// "prometheus" or "prom", the JSON snapshot otherwise. A nil observer
// writes nothing.
func Dump(o *Observer, metrics, trace bool, format, outPath string) error {
	if o == nil {
		return nil
	}
	if trace {
		o.Trace.WriteTree(os.Stderr)
	}
	if !metrics {
		return nil
	}
	out := os.Stderr
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close() // for the error paths; success checks Close below
		out = f
	}
	var err error
	if format == "prometheus" || format == "prom" {
		err = o.Metrics.WritePrometheus(out)
	} else {
		err = WriteSnapshotJSON(out, o)
	}
	if err == nil && out != os.Stderr {
		err = out.Close()
	}
	return err
}

// WriteSnapshotJSON writes the combined observability snapshot the CLIs emit
// under --metrics: a "metrics" object (counters/gauges/histograms) and a
// "spans" array carrying per-phase durations in microseconds.
func WriteSnapshotJSON(w io.Writer, o *Observer) error {
	var doc struct {
		Metrics Snapshot       `json:"metrics"`
		Spans   []snapshotSpan `json:"spans"`
	}
	if o != nil {
		doc.Metrics = o.Metrics.Snapshot()
		for _, s := range o.Trace.Snapshot() {
			out := snapshotSpan{
				ID: s.ID, Parent: s.Parent, TraceID: s.TraceID, Name: s.Name,
				DurationUS: s.Duration.Microseconds(), Error: s.Error,
			}
			if len(s.Attrs) > 0 {
				out.Attrs = map[string]int64{}
				for _, a := range s.Attrs {
					out.Attrs[a.Key] = a.Value
				}
			}
			if len(s.SAttrs) > 0 {
				out.Strs = map[string]string{}
				for _, a := range s.SAttrs {
					out.Strs[a.Key] = a.Value
				}
			}
			doc.Spans = append(doc.Spans, out)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
