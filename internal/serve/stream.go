package serve

import (
	"errors"
	"io"
	"net/http"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// handleExtractStream is the single-document streaming surface: POST
// /extract/stream/{key} with the raw page as the body. Where POST /extract
// materializes every document before matching, this route pipes the request
// body straight through the wrapper's one-pass streaming extractor — the
// page is tokenized and matched chunk by chunk as it arrives, memory stays
// O(1) beyond the match region, and the warm path performs no allocations
// (see ARCHITECTURE.md §8). Every wrapper streams, so the route has no
// materialized fallback. The body is admitted like every page body (see
// cluster.AdmitType): a declared media type other than text/html is a 415.
//
// The route serves the key's active version only: canary routing needs the
// request-counting stride bookkeeping of the batch path, and a staged
// canary observes batch traffic regardless. A key registered with a k-ary
// tuple wrapper is a 422, distinct from the 404 of an unregistered key (see
// lookupPage).
func (s *Server) handleExtractStream(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter("serve_requests_total").Inc()
	key := r.PathValue("key")
	wr, ok := lookupPage[*wrapper.Wrapper](s, w, key, "wrapper")
	if !ok {
		return
	}
	if rej := cluster.AdmitType(r, "text/html"); rej != nil {
		s.refuse(w, rej)
		return
	}
	ctx, tc := obs.JoinTrace(w, r, s.obs)
	ctx, sp := s.obs.StartSpan(ctx, "serve.stream")
	sp.SetStr("key", key)
	start := time.Now()
	se, _ := wr.Stream() // built with the wrapper; never an error
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.maxBody)}

	res := extractResult{Key: key}
	err := se.ExtractReaderTo(ctx, body, func(sr wrapper.StreamRegion) error {
		res.OK = true
		res.TokenIndex = sr.TokenIndex
		res.Start = sr.Span.Start
		res.End = sr.Span.End
		res.Source = string(sr.Source)
		return nil
	})
	sp.SetAttr("doc_bytes", body.n)
	switch {
	case err == nil:
	case errors.Is(err, wrapper.ErrNotExtracted):
		// An extraction miss is a well-formed answer, mirroring the batch
		// route's per-document errors.
		res.Error = err.Error()
		err = nil
	default:
		sp.SetError(err)
		sp.End()
		if status := failStatus(err, 0); status != 0 {
			cluster.WriteError(w, status, err)
		} else {
			s.refuse(w, cluster.ReadRejection(err))
		}
		return
	}
	elapsed := time.Since(start)
	sp.SetAttr("ok", boolAttr(res.OK))
	sp.End()
	s.obs.Histogram("serve_stream_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
	s.wideEvent(wideStream,
		"trace", tc.TraceID,
		"key", key,
		"doc_bytes", body.n,
		"ok", res.OK,
		"duration_us", elapsed.Microseconds(),
	)
	cluster.WriteJSON(w, http.StatusOK, res)
}

// countingReader counts the bytes the stream route reads, for doc_bytes.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
