package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"resilex/internal/machine"
	"resilex/internal/wrapper"
)

// handleExtractStream is the single-document streaming surface: POST
// /extract/stream/{key} with the raw page as the body. Where POST /extract
// materializes every document before matching, this route pipes the request
// body straight through the wrapper's one-pass streaming extractor — the
// page is tokenized and matched chunk by chunk as it arrives, memory stays
// O(1) beyond the match region, and the warm path performs no allocations
// (see ARCHITECTURE.md §8). Every wrapper streams, so the route has no
// materialized fallback.
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
	ctx, tc := s.traceContext(w, r)
	ctx, sp := s.obs.StartSpan(ctx, "serve.stream")
	sp.SetStr("key", key)
	start := time.Now()
	se, err := wr.Stream()
	if err != nil {
		sp.SetError(err)
		sp.End()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)

	res := extractResult{Key: key}
	err = se.ExtractReaderTo(ctx, body, func(sr wrapper.StreamRegion) error {
		res.OK = true
		res.TokenIndex = sr.TokenIndex
		res.Start = sr.Span.Start
		res.End = sr.Span.End
		res.Source = string(sr.Source)
		return nil
	})
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
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.reject(w, http.StatusRequestEntityTooLarge,
				"body_too_large", fmt.Errorf("request body exceeds %d bytes", s.maxBody))
		case errors.Is(err, machine.ErrDeadline) || errors.Is(err, machine.ErrBudget):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			s.reject(w, http.StatusBadRequest, "body_read", err)
		}
		return
	}
	elapsed := time.Since(start)
	sp.SetAttr("ok", boolAttr(res.OK))
	sp.End()
	s.obs.Histogram("serve_stream_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
	s.wideEvent("serve.stream_request",
		"trace", tc.TraceID,
		"key", key,
		"ok", res.OK,
		"duration_us", elapsed.Microseconds(),
	)
	writeJSON(w, http.StatusOK, res)
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
