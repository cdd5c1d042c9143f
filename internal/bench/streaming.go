package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"resilex/internal/wrapper"
)

// e21FillerRow is the in-Σ padding row used to grow the Figure 1 bottom
// layout to arbitrary size without changing its extraction: every tag is one
// the trained wrapper already knows, so the page keeps parsing while the
// matcher keeps spawning (and killing) candidates.
const e21FillerRow = "<tr><td><a href=\"cust.html\">filler row</a></td></tr>\n"

// E21Streaming compares the materialized two-scan extraction path against
// the one-pass streaming path (wrapper.StreamExtractor) on Figure 1 pages
// padded to increasing sizes. Both paths are run warm for iters iterations
// per page size; throughput, per-op latency, and per-op heap traffic
// (mallocs and bytes, measured via runtime.MemStats deltas) land in the
// table. The streaming rows validate the two serve-path claims at bench
// scale: allocs/op and KB/op stay flat (zero, beyond MemStats measurement
// noise) as pages grow, where the materialized path's KB/op grows linearly
// with the page (its allocs/op only with the doubling of its arrays); and
// the streaming result is byte-identical to the materialized one on every
// page (checked each run).
func E21Streaming(iters int) Table {
	t := Table{
		ID:     "E21",
		Title:  "streaming extraction: one-pass zero-alloc path vs materialized two-scan",
		Claim:  "runtime extension: fusing tokenization into the one-pass product matcher serves chunked documents in O(1) memory beyond the match region with zero warm-path allocations; the materialized path runs the same allocation-free tokenizer, so its allocations per op grow only as its symbol and span arrays double, while its KB/op still grows linearly with page size",
		Header: []string{"mode", "page KB", "MB/s", "µs/op", "allocs/op", "KB/op"},
	}
	w := e21Wrapper()
	se, _ := w.Stream() // built with the wrapper; never an error
	ctx := contextWithObserver()

	for _, filler := range []int{0, 1000, 25000} {
		page := e21Page(filler)
		pageKB := fmt.Sprintf("%.1f", float64(len(page))/1024)

		want, err := w.Extract(page)
		if err != nil {
			panic(err)
		}
		rd := bytes.NewReader([]byte(page))
		got, err := se.ExtractReader(ctx, rd)
		if err != nil {
			panic(err)
		}
		if got != want {
			panic(fmt.Sprintf("bench: streaming %+v disagrees with materialized %+v on %d-byte page", got, want, len(page)))
		}

		row := func(mode string, op func()) {
			op() // warm: pools, lazy tables, symbol interning
			op()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			perOp := elapsed / time.Duration(iters)
			mbps := float64(len(page)) * float64(iters) / (1 << 20) / elapsed.Seconds()
			allocs := float64(after.Mallocs-before.Mallocs) / float64(iters)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(iters) / 1024
			t.Rows = append(t.Rows, []string{
				mode, pageKB,
				fmt.Sprintf("%.1f", mbps),
				fmt.Sprint(perOp.Microseconds()),
				fmt.Sprintf("%.1f", allocs),
				fmt.Sprintf("%.1f", kb),
			})
		}
		row("materialized", func() {
			if _, err := w.Extract(page); err != nil {
				panic(err)
			}
		})
		pageBytes := []byte(page)
		sink := 0
		row("streaming", func() {
			rd.Reset(pageBytes)
			if err := se.ExtractReaderTo(ctx, rd, func(sr wrapper.StreamRegion) error {
				sink += sr.TokenIndex
				return nil
			}); err != nil {
				panic(err)
			}
		})
		_ = sink
	}
	return t
}

// e21Wrapper trains E21's wrapper on the Figure 1 layouts.
func e21Wrapper() *wrapper.Wrapper {
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}, Options: DefaultOptions})
	if err != nil {
		panic(err)
	}
	return w
}

// e21Page is the Figure 1 bottom layout with filler rows inserted before
// its form row; 1000 rows make the 52 KB page.
func e21Page(filler int) string {
	formAt := strings.Index(fig1Bottom, "<tr><td><form")
	if formAt < 0 {
		panic("bench: fig1Bottom lost its form row")
	}
	return fig1Bottom[:formAt] + strings.Repeat(e21FillerRow, filler) + fig1Bottom[formAt:]
}
