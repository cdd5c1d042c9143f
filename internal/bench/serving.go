package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"resilex/internal/extract"
	"resilex/internal/wrapper"
)

// e16BatchSize is the batch granularity of the batched mode: large enough to
// amortize pool startup, small enough that the run yields many latency
// samples for the percentile columns.
const e16BatchSize = 64

// E16Throughput measures the serving path on a repeated-wrapper workload —
// the shopbot steady state where every request names a wrapper the server
// has already seen. Three modes over the same document stream:
//
//	load/doc    the cache-disabled baseline: every document pays a full
//	            persisted-wrapper load (parse, compile, determinize)
//	cached/doc  wrapper.LoadCached through the compiled-artifact cache:
//	            one cold compile, then content-addressed hits
//	cached+batch the cache plus Fleet.ExtractBatch on a worker pool
//
// Per-document latency is measured directly in the sequential modes and
// amortized per batch in the batched mode. The speedup column is relative
// to the cache-disabled baseline in the same run.
func E16Throughput(docs, workers int, seed int64) Table {
	t := Table{
		ID:     "E16",
		Title:  "serving throughput: compiled-wrapper cache and batched extraction",
		Claim:  "runtime extension: content-addressed caching keeps automaton construction off the request path; repeated-wrapper serving gains ≥5× throughput",
		Header: []string{"mode", "docs/sec", "p50 µs", "p99 µs", "cache hit %", "speedup ×"},
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

	// The document stream: a seeded shuffle over the three Figure 1
	// layouts, so every mode sees the identical mixed workload.
	rng := rand.New(rand.NewSource(seed))
	layouts := []string{fig1Top, fig1Bottom, fig1Novel}
	pages := make([]string, docs)
	for i := range pages {
		pages[i] = layouts[rng.Intn(len(layouts))]
	}

	row := func(mode string, durs []time.Duration, total time.Duration, hitRate, baseline float64) float64 {
		rate := float64(len(durs)) / total.Seconds()
		hit := "-"
		if hitRate >= 0 {
			hit = fmt.Sprintf("%.1f", 100*hitRate)
		}
		speedup := "1.0"
		if baseline > 0 {
			speedup = fmt.Sprintf("%.1f", rate/baseline)
		}
		t.Rows = append(t.Rows, []string{
			mode, fmt.Sprintf("%.0f", rate),
			fmt.Sprint(pctile(durs, 0.50).Microseconds()),
			fmt.Sprint(pctile(durs, 0.99).Microseconds()),
			hit, speedup,
		})
		return rate
	}

	// Mode 1 — cache-disabled baseline: full load per document.
	durs := make([]time.Duration, docs)
	start := time.Now()
	for i, page := range pages {
		s := time.Now()
		wi, err := wrapper.Load(payload, DefaultOptions)
		if err != nil {
			panic(err)
		}
		if _, err := wi.Extract(page); err != nil {
			panic(err)
		}
		durs[i] = time.Since(s)
	}
	baseline := row("load/doc", durs, time.Since(start), -1, 0)

	// Mode 2 — cached load per document: one miss, then hits.
	cache := extract.NewTieredCache(extract.NewCache(16, DefaultObserver), nil)
	start = time.Now()
	for i, page := range pages {
		s := time.Now()
		wi, err := wrapper.LoadCached(payload, DefaultOptions, cache)
		if err != nil {
			panic(err)
		}
		if _, err := wi.Extract(page); err != nil {
			panic(err)
		}
		durs[i] = time.Since(s)
	}
	row("cached/doc", durs, time.Since(start), cache.Stats().HitRate(), baseline)

	// Mode 3 — the full serving path: one cached fleet, batched parallel
	// extraction. Latency is amortized across each batch.
	fw, err := wrapper.LoadCached(payload, DefaultOptions, cache)
	if err != nil {
		panic(err)
	}
	fleet := wrapper.NewFleet()
	fleet.Add("vs", fw)
	batch := make([]wrapper.BatchDoc, 0, e16BatchSize)
	durs = durs[:0]
	ctx := contextWithObserver()
	start = time.Now()
	for at := 0; at < len(pages); at += e16BatchSize {
		end := min(at+e16BatchSize, len(pages))
		batch = batch[:0]
		for _, page := range pages[at:end] {
			batch = append(batch, wrapper.BatchDoc{Key: "vs", HTML: page})
		}
		s := time.Now()
		for _, res := range fleet.ExtractBatch(ctx, batch, wrapper.BatchOptions{Workers: workers}) {
			if res.Err != nil {
				panic(res.Err)
			}
		}
		per := time.Since(s) / time.Duration(len(batch))
		for range batch {
			durs = append(durs, per)
		}
	}
	row("cached+batch", durs, time.Since(start), cache.Stats().HitRate(), baseline)
	return t
}

// pctile returns the p-quantile (0 ≤ p ≤ 1, nearest-rank) of the samples.
func pctile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s)-1) + 0.5)
	return s[idx]
}
