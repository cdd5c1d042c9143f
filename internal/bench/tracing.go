package bench

import (
	"fmt"
	"math/rand"
	"time"

	"resilex/internal/extract"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// E20TracingOverhead measures what end-to-end request tracing costs on the
// hot serving path: the E16 cached+batch workload (one cached fleet, batched
// parallel extraction) run twice over the identical document stream —
//
//	tracing off  the serving context carries an observer (metrics on, as in
//	             E16) but no trace: spans record into the tracer's ring with
//	             cheap counter IDs and belong to no trace
//	tracing on   every batch is one traced request: a fresh trace ID, a root
//	             span and child batch spans under random IDs, recorded into
//	             the same ring, and a trace-ID exemplar on the latency
//	             histogram
//
// The overhead column is the tracing-on p50 relative to tracing off; the
// acceptance bar for the instrumentation backbone is ≤5% on p50.
func E20TracingOverhead(docs, workers int, seed int64) Table {
	t := Table{
		ID:     "E20",
		Title:  "tracing overhead: end-to-end request tracing on the cached-batch serving path",
		Claim:  "runtime extension: distributed tracing (trace IDs, span assembly, exemplars) costs ≤5% p50 on the hot batch path",
		Header: []string{"mode", "docs/sec", "p50 µs", "p99 µs", "p50 overhead %"},
	}
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}, Options: DefaultOptions})
	if err != nil {
		panic(err)
	}
	payload, err := w.MarshalJSON()
	if err != nil {
		panic(err)
	}

	// The identical seeded document stream for both modes.
	rng := rand.New(rand.NewSource(seed))
	layouts := []string{fig1Top, fig1Bottom, fig1Novel}
	pages := make([]string, docs)
	for i := range pages {
		pages[i] = layouts[rng.Intn(len(layouts))]
	}

	// One warmed fleet shared by both modes: the compile happens once here,
	// so neither mode pays a cold-start artifact.
	o := obs.New()
	cache := extract.NewTieredCache(extract.NewCache(16, o), nil)
	fw, err := wrapper.LoadCached(payload, DefaultOptions, cache)
	if err != nil {
		panic(err)
	}
	fleet := wrapper.NewFleet()
	fleet.Add("vs", fw)

	// runMode replays the page stream through Fleet.ExtractBatch in
	// e16BatchSize batches, returning amortized per-document latencies and
	// the wall-clock total. With traced set, each batch is one traced
	// request: fresh trace ID, root span, exemplar observation — exactly what
	// the serve handler adds per request.
	baseCtx := obs.NewContext(contextWithObserver(), o)
	runMode := func(traced bool) ([]time.Duration, time.Duration) {
		durs := make([]time.Duration, 0, docs)
		batch := make([]wrapper.BatchDoc, 0, e16BatchSize)
		start := time.Now()
		for at := 0; at < len(pages); at += e16BatchSize {
			end := min(at+e16BatchSize, len(pages))
			batch = batch[:0]
			for _, page := range pages[at:end] {
				batch = append(batch, wrapper.BatchDoc{Key: "vs", HTML: page})
			}
			s := time.Now()
			ctx := baseCtx
			var sp *obs.Span
			var traceID string
			if traced {
				traceID = obs.NewTraceID()
				ctx = obs.ContextWithTrace(ctx, obs.TraceContext{TraceID: traceID})
				ctx, sp = o.StartSpan(ctx, "serve.extract")
				sp.SetAttr("docs", int64(len(batch)))
			}
			for _, res := range fleet.ExtractBatch(ctx, batch, wrapper.BatchOptions{Workers: workers}) {
				if res.Err != nil {
					panic(res.Err)
				}
			}
			elapsed := time.Since(s)
			if traced {
				sp.End()
				o.Histogram("serve_extract_duration_us").ObserveExemplar(elapsed.Microseconds(), traceID)
			}
			per := elapsed / time.Duration(len(batch))
			for range batch {
				durs = append(durs, per)
			}
		}
		return durs, time.Since(start)
	}

	// A short untimed warmup settles the pool and the page cache before
	// either timed mode runs.
	warm := pages
	if len(warm) > 2*e16BatchSize {
		warm = warm[:2*e16BatchSize]
	}
	for at := 0; at < len(warm); at += e16BatchSize {
		end := min(at+e16BatchSize, len(warm))
		b := make([]wrapper.BatchDoc, 0, end-at)
		for _, page := range warm[at:end] {
			b = append(b, wrapper.BatchDoc{Key: "vs", HTML: page})
		}
		fleet.ExtractBatch(baseCtx, b, wrapper.BatchOptions{Workers: workers})
	}

	// Alternating rounds cancel machine drift: a background load spike that
	// lands during one round hits both modes roughly equally instead of
	// charging the whole disturbance to whichever mode ran second.
	const rounds = 4
	var offDurs, onDurs []time.Duration
	var offTotal, onTotal time.Duration
	for i := 0; i < rounds; i++ {
		d, tot := runMode(false)
		offDurs = append(offDurs, d...)
		offTotal += tot
		d, tot = runMode(true)
		onDurs = append(onDurs, d...)
		onTotal += tot
	}

	offP50 := pctile(offDurs, 0.50)
	onP50 := pctile(onDurs, 0.50)
	overhead := "-"
	if offP50 > 0 {
		overhead = fmt.Sprintf("%.1f", 100*(float64(onP50)/float64(offP50)-1))
	}
	t.Rows = append(t.Rows, []string{
		"tracing off",
		fmt.Sprintf("%.0f", float64(len(offDurs))/offTotal.Seconds()),
		fmt.Sprint(offP50.Microseconds()),
		fmt.Sprint(pctile(offDurs, 0.99).Microseconds()),
		"-",
	})
	t.Rows = append(t.Rows, []string{
		"tracing on",
		fmt.Sprintf("%.0f", float64(len(onDurs))/onTotal.Seconds()),
		fmt.Sprint(onP50.Microseconds()),
		fmt.Sprint(pctile(onDurs, 0.99).Microseconds()),
		overhead,
	})
	return t
}
