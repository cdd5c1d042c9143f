package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryTracerConcurrency hammers one registry and one tracer from many
// goroutines; run under -race this checks the lock discipline of both the
// fast (existing metric) and slow (create) paths plus ring eviction, and of
// the trace views and the export, which read the ring while spans end.
func TestRegistryTracerConcurrency(t *testing.T) {
	o := New()
	o.Trace = NewTracer(64) // small ring to force concurrent eviction
	// The export is written only under the tracer's export lock.
	var export strings.Builder
	o.Trace.SetExport(&export)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := NewContext(context.Background(), o)
			traceID := ""
			if w%2 == 0 { // half the workers run traced
				traceID = fmt.Sprintf("%016x", w+1)
				ctx = ContextWithTrace(ctx, TraceContext{TraceID: traceID})
			}
			for i := 0; i < 500; i++ {
				o.Counter("shared_total").Inc()
				o.Counter(fmt.Sprintf("worker_%d_total", w%4)).Add(2)
				o.Gauge("depth").Set(int64(i))
				o.Histogram("lat_us").Observe(int64(i % 2000))
				pctx, p := StartPhase(ctx, "work.outer")
				p.Count("phase_items_total", 1)
				_, inner := StartPhase(pctx, "work.inner")
				inner.Attr("i", int64(i))
				inner.End()
				p.End()
				if i%50 == 0 {
					_ = o.Metrics.Snapshot()
					_ = o.Trace.Snapshot()
					_ = o.Trace.Trace(traceID)
					_ = o.Trace.List()
				}
			}
		}(w)
	}
	wg.Wait()

	snap := o.Metrics.Snapshot()
	if got := snap.Counters["shared_total"]; got != workers*500 {
		t.Fatalf("shared_total = %d, want %d", got, workers*500)
	}
	if got := snap.Histograms["lat_us"].Count; got != workers*500 {
		t.Fatalf("histogram count = %d, want %d", got, workers*500)
	}
	if got := o.Trace.Total(); got != workers*500*2 {
		t.Fatalf("spans recorded = %d, want %d", got, workers*500*2)
	}
	if got := len(o.Trace.Snapshot()); got != 64 {
		t.Fatalf("ring size = %d, want 64", got)
	}
	if got := strings.Count(export.String(), "\n"); got != workers/2*500*2 {
		t.Fatalf("exported spans = %d, want every traced span (%d)", got, workers/2*500*2)
	}
}
