package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// handleExtractTuples is the record-extraction surface: POST
// /extract/tuples/{key} with the raw page as the body answers every
// extraction vector of the key's k-ary wrapper — one k-slot record per
// vector, in document order — computed by the one-pass multi-split spanner
// (internal/spanner) rather than k single-pivot passes. Each record's JSON
// is appended to a pooled buffer as the spanner's cursor yields it, and the
// response is written once enumeration ends, so an error still answers
// with its own status.
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
	out := tuplesBodies.Get().(*tuplesBody)
	defer tuplesBodies.Put(out)
	out.records, out.count = out.records[:0], 0
	start := time.Now()
	err := tw.ExtractAllTo(ctx, body, out.add)
	elapsed := time.Since(start)
	if err != nil {
		sp.SetError(err)
		sp.End()
		cluster.WriteError(w, failStatus(err, http.StatusInternalServerError), err)
		return
	}
	sp.SetAttr("records", int64(out.count))
	sp.End()
	s.obs.Counter("spanner_tuples_total").Add(int64(out.count))
	s.obs.Histogram("serve_tuples_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
	s.wideEvent(wideTuples,
		"trace", tc.TraceID,
		"key", key,
		"doc_bytes", len(body),
		"arity", tw.Arity(),
		"records", out.count,
		"duration_us", elapsed.Microseconds(),
	)
	out.write(w, key, tw.Arity())
}

// tuplesBody is a tuples response under construction: the records' JSON,
// comma-separated, and how many there are.
type tuplesBody struct {
	records []byte
	count   int
}

// tuplesBodies recycles response buffers across requests.
var tuplesBodies = sync.Pool{New: func() any { return new(tuplesBody) }}

// add appends one record as an array of {tokenIndex, start, end, source}
// objects; it is ExtractAllTo's callback and copies what it borrows.
func (b *tuplesBody) add(rec []wrapper.StreamRegion) error {
	if b.count > 0 {
		b.records = append(b.records, ',')
	}
	b.count++
	b.records = append(b.records, '[')
	for j, reg := range rec {
		if j > 0 {
			b.records = append(b.records, ',')
		}
		b.records = append(b.records, `{"tokenIndex":`...)
		b.records = strconv.AppendInt(b.records, int64(reg.TokenIndex), 10)
		b.records = append(b.records, `,"start":`...)
		b.records = strconv.AppendInt(b.records, int64(reg.Span.Start), 10)
		b.records = append(b.records, `,"end":`...)
		b.records = strconv.AppendInt(b.records, int64(reg.Span.End), 10)
		b.records = append(b.records, `,"source":`...)
		b.records = appendJSONString(b.records, reg.Source)
		b.records = append(b.records, '}')
	}
	b.records = append(b.records, ']')
	return nil
}

// write answers 200 with {"key","arity","count","records"}, byte for byte
// what cluster.WriteJSON writes for the same fields.
func (b *tuplesBody) write(w http.ResponseWriter, key string, arity int) {
	head := append(make([]byte, 0, 64+len(key)), `{"key":`...)
	head = appendJSONString(head, key)
	head = append(head, `,"arity":`...)
	head = strconv.AppendInt(head, int64(arity), 10)
	head = append(head, `,"count":`...)
	head = strconv.AppendInt(head, int64(b.count), 10)
	head = append(head, `,"records":[`...)
	b.records = append(b.records, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(head)
	w.Write(b.records)
}

// appendJSONString appends s as a JSON string exactly as encoding/json's
// default encoder writes it: '"' and '\' backslash-escaped; \b, \f, \n, \r
// and \t short-escaped; other bytes below 0x20 and the HTML-sensitive '<',
// '>' and '&' as \u00xx; U+2028 and U+2029 as \u2028 and \u2029; and each
// byte of invalid UTF-8 as \ufffd.
func appendJSONString[T string | []byte](dst []byte, s T) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	done := 0 // s[:done] is in dst
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[done:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			done = i
			continue
		}
		// A rune is at most utf8.UTFMax bytes; converting only those keeps
		// the []byte instantiation from allocating.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[done:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[done:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		done = i
	}
	dst = append(dst, s[done:]...)
	return append(dst, '"')
}
