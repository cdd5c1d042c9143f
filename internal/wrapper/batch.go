package wrapper

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"resilex/internal/obs"
)

// BatchDoc is one unit of work for RunBatch and Fleet.ExtractBatch: a page
// plus the site key selecting its wrapper.
type BatchDoc struct {
	Key  string `json:"key"`
	HTML string `json:"html"`
}

// BatchResult is the outcome for one BatchDoc. Exactly one of Region/Err is
// meaningful: Err is nil on success. Index is the document's position in the
// input slice.
type BatchResult struct {
	Index  int
	Key    string
	Region Region
	Err    error
}

// BatchOptions tunes RunBatch and ExtractBatch.
type BatchOptions struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// DocTimeout, when positive, layers a per-document deadline under the
	// batch context: each document gets its own timeout, but never more time
	// than the batch context has left. Everything RunBatch's run does for a
	// document, such as a canary attempt and its active fallback, shares it.
	DocTimeout time.Duration
}

// RunBatch runs run(ctx, i) for every document of a batch on a worker pool
// and returns one result per document, in input order — results[i] always
// corresponds to docs[i], regardless of which worker ran it or when it
// finished. Per-document failures are reported in the result, never by a
// panic or a short slice, so one poisoned document cannot take down its
// batch.
//
// The batch context bounds the whole call: run receives it, with
// BatchOptions.DocTimeout layered under it per document, so once it expires
// every remaining document fails fast with an error wrapping
// machine.ErrDeadline (every wrapper's extraction checks its context).
//
// An observer carried by ctx (obs.NewContext) maintains the counters
// wrapper_batch_docs_total and wrapper_batch_errors_total — each document
// counted once, by the error run finally returns — and the histogram
// wrapper_batch_doc_duration_us.
func RunBatch(ctx context.Context, docs []BatchDoc, opt BatchOptions, run func(ctx context.Context, i int) (Region, error)) []BatchResult {
	results := make([]BatchResult, len(docs))
	if len(docs) == 0 {
		return results
	}
	o := obs.FromContext(ctx)
	docsTotal := o.Counter("wrapper_batch_docs_total")
	errsTotal := o.Counter("wrapper_batch_errors_total")
	durations := o.Histogram("wrapper_batch_doc_duration_us")

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	forEach(len(docs), workers, func(i int) {
		dctx, cancel := ctx, context.CancelFunc(func() {})
		if opt.DocTimeout > 0 {
			dctx, cancel = context.WithTimeout(ctx, opt.DocTimeout)
		}
		start := time.Now()
		r, err := run(dctx, i)
		durations.Observe(time.Since(start).Microseconds())
		cancel()
		docsTotal.Inc()
		if err != nil {
			errsTotal.Inc()
		}
		results[i] = BatchResult{Index: i, Key: docs[i].Key, Region: r, Err: err}
	})
	return results
}

// forEach calls do(i) for every i < n on at most workers goroutines, each
// taking the next index in turn, and returns once every call has returned.
// It is the worker loop behind RunBatch and LoadAll.
func forEach(n, workers int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// ExtractBatch is RunBatch over the fleet: each document runs the wrapper
// its key selects, and an unknown key (or a tuple key, which the batch
// surface does not serve) fails that document with ErrUnknownKey.
func (f *Fleet) ExtractBatch(ctx context.Context, docs []BatchDoc, opt BatchOptions) []BatchResult {
	return RunBatch(ctx, docs, opt, func(ctx context.Context, i int) (Region, error) {
		return f.ExtractFromContext(ctx, docs[i].Key, docs[i].HTML)
	})
}
