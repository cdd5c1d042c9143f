package resilex

import (
	"context"
	"io"
	"log/slog"

	"resilex/internal/obs"
)

// Observability types, re-exported from internal/obs. The observability
// layer is dependency-free and nil-safe: a nil *Observer (or one with nil
// fields) accepts every call as a no-op, so instrumentation costs nothing
// when disabled.
type (
	// Observer bundles a metrics registry, a span tracer, and a structured
	// event logger. Inject one per process (or per experiment) and thread it
	// through contexts with WithObserver.
	Observer = obs.Observer
	// MetricsRegistry is a concurrency-safe named-metric store with
	// expvar-style JSON and Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// Tracer records completed spans into a bounded ring buffer.
	Tracer = obs.Tracer
	// EventLogger is the pluggable structured event sink (default: none).
	EventLogger = obs.Logger
)

// NewObserver returns an observer with a fresh metrics registry and a
// default-capacity span tracer, and no event logger. Assign SlogLogger (or
// any EventLogger) to its Log field to receive structured events.
func NewObserver() *Observer { return obs.New() }

// WithObserver returns a context carrying the observer. Every construction,
// extraction, or supervised request run under the returned context records
// its metrics, spans, and events into the observer:
//
//	o := resilex.NewObserver()
//	ctx := resilex.WithObserver(context.Background(), o)
//	region, err := resilex.ExtractWithin(ctx, w, page)
//	o.Metrics.WritePrometheus(os.Stdout)
func WithObserver(ctx context.Context, o *Observer) context.Context {
	return obs.NewContext(ctx, o)
}

// ObserverFromContext returns the observer carried by ctx, or nil.
func ObserverFromContext(ctx context.Context) *Observer {
	return obs.FromContext(ctx)
}

// slogLogger adapts a *slog.Logger into an EventLogger: the event name
// becomes the message, the key/value pairs pass through as attributes.
type slogLogger struct{ l *slog.Logger }

// Event logs the event at Info level.
func (s slogLogger) Event(name string, kv ...any) { s.l.Info(name, kv...) }

// SlogLogger returns an EventLogger backed by the given slog logger (the
// default slog logger when nil). Assign it to Observer.Log:
//
//	o := resilex.NewObserver()
//	o.Log = resilex.SlogLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
func SlogLogger(l *slog.Logger) EventLogger {
	if l == nil {
		l = slog.Default()
	}
	return slogLogger{l: l}
}

// WriteObserverSnapshot writes the observer's combined state — the metric
// registry plus the buffered spans with durations and attributes — as one
// indented JSON document. This is the format the CLIs emit under --metrics.
func WriteObserverSnapshot(w io.Writer, o *Observer) error {
	return obs.WriteSnapshotJSON(w, o)
}

// DumpObserver writes what an observed run collected, the way the CLIs'
// -trace and -metrics flags do: the span tree (trace) to stderr, and the
// metric snapshot (metrics) to the file outPath, or to stderr when outPath
// is empty — Prometheus text when format is "prometheus" or "prom", the
// JSON snapshot of WriteObserverSnapshot otherwise. A nil observer writes
// nothing.
func DumpObserver(o *Observer, metrics, trace bool, format, outPath string) error {
	return obs.Dump(o, metrics, trace, format, outPath)
}
