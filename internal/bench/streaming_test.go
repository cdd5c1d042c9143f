package bench

import (
	"bytes"
	"context"
	"testing"

	"resilex/internal/wrapper"
)

// BenchmarkStreamExtract times the stream route's warm session over E21's
// 52 KB page: chunked tokenizing, symbol resolution and the one-pass
// matcher, with the region handed to a callback.
func BenchmarkStreamExtract(b *testing.B) {
	se, err := e21Wrapper().Stream()
	if err != nil {
		b.Fatal(err)
	}
	page := []byte(e21Page(1000))
	rd := bytes.NewReader(page)
	sink := 0
	fn := func(sr wrapper.StreamRegion) error {
		sink += sr.TokenIndex
		return nil
	}
	ctx := context.Background()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(page)
		if err := se.ExtractReaderTo(ctx, rd, fn); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = sink
}

// BenchmarkExtract times the materialized route, Wrapper.Extract, on the
// same page: one tokenizing pass into symbol and span arrays, then the
// two-scan matcher.
func BenchmarkExtract(b *testing.B) {
	w := e21Wrapper()
	page := e21Page(1000)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := w.Extract(page)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r.TokenIndex
	}
}

var benchSink int
