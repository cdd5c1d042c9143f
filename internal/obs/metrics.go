// Package obs is the dependency-free observability layer of the extraction
// runtime: a concurrency-safe metrics registry (counters, gauges, fixed
// log-scale histograms), a lightweight span tracer backed by a ring buffer,
// and a pluggable structured event logger. Everything is nil-safe — a nil
// *Registry, *Counter, *Tracer, *Span or *Observer accepts every call as a
// no-op — so instrumented code pays one context lookup and nothing else when
// observation is off.
//
// The package deliberately has no dependencies outside the standard library
// and imports nothing else from this module, so every layer (machine,
// extract, wrapper, serve, refresh, bench, the CLIs) can use it without
// cycles.
//
// Metric families are owned by their emitting layers and documented in
// DESIGN.md §6: machine_*/extract_*/spanner_* (construction and matching),
// wrapper_* (batch extraction), serve_*/cluster_* (serving and
// replication), and refresh_* (the drift-watcher/canary rollout pipeline,
// whose promote and rollback decisions are themselves gated on counters read
// back from this registry).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil counter).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v (no-op on a nil gauge).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumHistogramBuckets is the fixed bucket count of every histogram: powers
// of two 1, 2, 4, …, 2^30 plus a final +Inf bucket.
const NumHistogramBuckets = 32

// BucketBound returns the inclusive upper bound of bucket i, or -1 for the
// +Inf bucket.
func BucketBound(i int) int64 {
	if i >= NumHistogramBuckets-1 {
		return -1
	}
	return 1 << i
}

// bucketIndex maps an observation to its log-scale bucket: the smallest i
// with v ≤ 2^i.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= NumHistogramBuckets {
		return NumHistogramBuckets - 1
	}
	return i
}

// Exemplar links one histogram bucket to a concrete traced request: the
// observed value and the trace ID that produced it (OpenMetrics exemplar
// semantics). Last write wins per bucket — recency is the useful property
// for "show me a slow request in this bucket".
type Exemplar struct {
	TraceID string `json:"traceId"`
	Value   int64  `json:"value"`
}

// Histogram accumulates observations into fixed log-scale buckets, with an
// optional per-bucket trace-ID exemplar.
type Histogram struct {
	count     atomic.Int64
	sum       atomic.Int64
	buckets   [NumHistogramBuckets]atomic.Int64
	exemplars [NumHistogramBuckets]atomic.Pointer[Exemplar]
}

// Observe records one value (no-op on a nil histogram).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveExemplar records one value and pins it as the bucket's exemplar
// when traceID is non-empty, linking the latency distribution back to a
// retrievable trace. With an empty traceID it degrades to Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	h.exemplars[bucketIndex(v)].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count     int64                          `json:"count"`
	Sum       int64                          `json:"sum"`
	Buckets   [NumHistogramBuckets]int64     `json:"-"`
	Exemplars [NumHistogramBuckets]*Exemplar `json:"-"`
}

// MarshalJSON renders the snapshot with non-empty buckets keyed by their
// upper bound ("+Inf" for the last), and any bucket exemplars keyed the same
// way.
func (h HistogramSnapshot) MarshalJSON() ([]byte, error) {
	bound := func(i int) string {
		if b := BucketBound(i); b >= 0 {
			return fmt.Sprint(b)
		}
		return "+Inf"
	}
	buckets := map[string]int64{}
	for i, n := range h.Buckets {
		if n != 0 {
			buckets[bound(i)] = n
		}
	}
	var exemplars map[string]*Exemplar
	for i, e := range h.Exemplars {
		if e == nil {
			continue
		}
		if exemplars == nil {
			exemplars = map[string]*Exemplar{}
		}
		exemplars[bound(i)] = e
	}
	return json.Marshal(struct {
		Count     int64                `json:"count"`
		Sum       int64                `json:"sum"`
		Buckets   map[string]int64     `json:"buckets"`
		Exemplars map[string]*Exemplar `json:"exemplars,omitempty"`
	}{h.Count, h.Sum, buckets, exemplars})
}

// Registry is a concurrency-safe named-metric store. Metric names follow the
// Prometheus convention, optionally carrying a label set built with
// WithLabels: `refresh_canary_serve_total{site="vs",outcome="ok"}`.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// phases maps a phase name to its duration histogram. Phase names are
	// constants in the code, so it stays small.
	phases map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		phases:   map[string]*Histogram{},
	}
}

// WithLabels renders a metric name with a label set in the given key/value
// order: WithLabels("x_total", "site", "vs") = `x_total{site="vs"}`.
func WithLabels(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter returns (creating if needed) the named counter. A nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// phaseHistogram returns the duration histogram of the phase named name
// (dotted, e.g. "spanner.run"): "<name with dots as underscores>_duration_us",
// e.g. spanner_run_duration_us. The histogram's name is built only the
// first time the registry meets the phase, so a phase's End allocates
// nothing for it.
func (r *Registry) phaseHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.phases[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Histogram(strings.ReplaceAll(name, ".", "_") + "_duration_us")
	r.mu.Lock()
	r.phases[name] = h
	r.mu.Unlock()
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
			hs.Exemplars[i] = h.exemplars[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the registry as a single flat JSON object in the expvar
// style: counters and gauges map name → value, histograms map name → a
// {count, sum, buckets} object. Keys are sorted (encoding/json sorts map
// keys), so the output is deterministic for a given state.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	flat := map[string]any{}
	for name, v := range s.Counters {
		flat[name] = v
	}
	for name, v := range s.Gauges {
		flat[name] = v
	}
	for name, h := range s.Histograms {
		flat[name] = h
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flat)
}

// splitName separates a metric name from its optional {label} suffix.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, counter and
// gauge samples verbatim, histograms as cumulative _bucket{le="..."} series
// plus _sum and _count. Output is sorted by family then sample name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics writes the registry in the OpenMetrics text format: the
// same families and sample lines as WritePrometheus, plus per-bucket
// trace-ID exemplars (`... # {trace_id="..."} value`) and the mandatory
// terminating `# EOF`. Served from /metrics when the scraper's Accept
// header asks for application/openmetrics-text.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeExposition(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	s := r.Snapshot()
	writeFamily := func(names []string, kind string, sample func(name string) error) error {
		sort.Strings(names)
		lastBase := ""
		for _, name := range names {
			base, _ := splitName(name)
			if base != lastBase {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
					return err
				}
				lastBase = base
			}
			if err := sample(name); err != nil {
				return err
			}
		}
		return nil
	}
	counterNames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		counterNames = append(counterNames, name)
	}
	if err := writeFamily(counterNames, "counter", func(name string) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name])
		return err
	}); err != nil {
		return err
	}
	gaugeNames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gaugeNames = append(gaugeNames, name)
	}
	if err := writeFamily(gaugeNames, "gauge", func(name string) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name])
		return err
	}); err != nil {
		return err
	}
	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	return writeFamily(histNames, "histogram", func(name string) error {
		base, labels := splitName(name)
		h := s.Histograms[name]
		series := func(le string, cum int64, ex *Exemplar) error {
			sep := ""
			if labels != "" {
				sep = ","
			}
			exemplar := ""
			if openMetrics && ex != nil {
				exemplar = fmt.Sprintf(" # {trace_id=%q} %d", ex.TraceID, ex.Value)
			}
			_, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n", base, labels, sep, le, cum, exemplar)
			return err
		}
		cum := int64(0)
		for i, n := range h.Buckets {
			cum += n
			le := "+Inf"
			if b := BucketBound(i); b >= 0 {
				le = fmt.Sprint(b)
			}
			if err := series(le, cum, h.Exemplars[i]); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, suffix, h.Sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.Count)
		return err
	})
}
