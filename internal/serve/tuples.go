package serve

import (
	"net/http"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// tupleRegion is one extracted slot of one record in the tuples response.
type tupleRegion struct {
	TokenIndex int    `json:"tokenIndex"`
	Start      int    `json:"start"`
	End        int    `json:"end"`
	Source     string `json:"source"`
}

// handleExtractTuples is the record-extraction surface: POST
// /extract/tuples/{key} with the raw page as the body answers every
// extraction vector of the key's k-ary wrapper — one k-slot record per
// vector, in document order — computed by the one-pass multi-split spanner
// (internal/spanner) rather than k single-pivot passes.
//
// The route serves the key's active version only, like the streaming
// surface. A key registered with a single-pivot wrapper is a 422, distinct
// from the 404 of an unregistered key (see lookupPage).
func (s *Server) handleExtractTuples(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter("serve_requests_total").Inc()
	key := r.PathValue("key")
	tw, ok := lookupPage[*wrapper.TupleWrapper](s, w, key, "tuple wrapper")
	if !ok {
		return
	}
	body, rej := cluster.ReadBody(w, r, "text/html", s.maxBody)
	if rej != nil {
		s.refuse(w, rej)
		return
	}
	ctx, tc := obs.JoinTrace(w, r, s.obs)
	ctx, sp := s.obs.StartSpan(ctx, "serve.tuples")
	sp.SetStr("key", key)
	sp.SetAttr("doc_bytes", int64(len(body)))
	start := time.Now()
	records, err := tw.ExtractAllContext(ctx, string(body))
	elapsed := time.Since(start)
	if err != nil {
		sp.SetError(err)
		sp.End()
		cluster.WriteError(w, failStatus(err, http.StatusInternalServerError), err)
		return
	}
	out := struct {
		Key     string          `json:"key"`
		Arity   int             `json:"arity"`
		Count   int             `json:"count"`
		Records [][]tupleRegion `json:"records"`
	}{Key: key, Arity: tw.Arity(), Count: len(records), Records: make([][]tupleRegion, len(records))}
	for i, rec := range records {
		row := make([]tupleRegion, len(rec))
		for j, reg := range rec {
			row[j] = tupleRegion{
				TokenIndex: reg.TokenIndex,
				Start:      reg.Span.Start,
				End:        reg.Span.End,
				Source:     reg.Source,
			}
		}
		out.Records[i] = row
	}
	sp.SetAttr("records", int64(len(records)))
	sp.End()
	s.obs.Counter("spanner_tuples_total").Add(int64(len(records)))
	s.obs.Histogram("serve_tuples_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
	s.wideEvent("serve.tuples_request",
		"trace", tc.TraceID,
		"key", key,
		"doc_bytes", len(body),
		"arity", tw.Arity(),
		"records", len(records),
		"duration_us", elapsed.Microseconds(),
	)
	cluster.WriteJSON(w, http.StatusOK, out)
}
