package bench

import (
	"encoding/json"
	"fmt"
	"testing"

	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// BenchmarkExtractDecode times the server's POST /extract body decoder
// against json.Unmarshal on the body a Go client sends for 8 Figure-1
// pages: json.Marshal output, with every < and > escaped.
func BenchmarkExtractDecode(b *testing.B) {
	layouts := []string{fig1Top, fig1Bottom, fig1Novel, fig1Future}
	docs := make([]wrapper.BatchDoc, 8)
	for i := range docs {
		docs[i] = wrapper.BatchDoc{Key: fmt.Sprintf("site-%d", i), HTML: layouts[i%len(layouts)]}
	}
	body, err := json.Marshal(struct {
		Docs []wrapper.BatchDoc `json:"docs"`
	}{docs})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DecodeExtractRequest", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			docs, err := serve.DecodeExtractRequest(body)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = len(docs)
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req struct {
				Docs []wrapper.BatchDoc `json:"docs"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			benchSink = len(req.Docs)
		}
	})
}
