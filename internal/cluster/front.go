package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
)

// The request decisions both HTTP fronts make — a shard (internal/serve)
// and the router — defined once: body admission, the five write routes with
// their ?version= guard, and the JSON writers. A refused request comes back
// as a Rejection; each front answers it under its own counters.

// DefaultMaxBody bounds request bodies on a front whose limit is unset:
// bodies beyond it are a client error, not an allocation.
const DefaultMaxBody = 64 << 20

// maxReadHint caps the buffer ReadBody sizes from a declared Content-Length,
// so an overstated header cannot make a front allocate more than this
// before any bytes arrive.
const maxReadHint = 1 << 20

// Rejection is a request a front refuses before doing its work: the status
// to answer, the reason it is counted under ("content_type",
// "body_too_large", "body_read" or "decode"), and the cause.
type Rejection struct {
	Status int
	Reason string
	Err    error
}

// AdmitType admits a request body by its declared media type: an absent
// Content-Type is accepted as want; otherwise the media type must be want,
// or the request is a 415.
func AdmitType(r *http.Request, want string) *Rejection {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return nil
	}
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == want {
		return nil
	}
	return &Rejection{http.StatusUnsupportedMediaType, "content_type",
		fmt.Errorf("unsupported Content-Type %q, want %s", ct, want)}
}

// ReadBody admits a request body of media type want (see AdmitType) and
// reads it whole through http.MaxBytesReader, into a buffer sized from the
// declared Content-Length (see readAll). A refused body is a 415, 413 or
// 400 Rejection.
func ReadBody(w http.ResponseWriter, r *http.Request, want string, limit int64) ([]byte, *Rejection) {
	if rej := AdmitType(r, want); rej != nil {
		return nil, rej
	}
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err != nil {
		return nil, ReadRejection(fmt.Errorf("reading body: %w", err))
	}
	return body, nil
}

// ReadRejection classifies a failed read of a body bounded by
// http.MaxBytesReader: a 413 when the bound cut it, a 400 otherwise.
func ReadRejection(err error) *Rejection {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &Rejection{http.StatusRequestEntityTooLarge, "body_too_large", err}
	}
	return &Rejection{http.StatusBadRequest, "body_read", err}
}

// readAll is io.ReadAll over a buffer that starts one byte past
// min(declared, limit, maxReadHint), so a body no longer than that reads to
// EOF without growing it. Past that, and from 512 bytes for a body of
// undeclared length (-1), the buffer grows as io.ReadAll's does.
func readAll(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared, limit, maxReadHint) + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
	}
}

// WriteRoute is one direct write route: the pattern both fronts register,
// the route's name (a shard traces it as "serve.<name>") and its op kind.
type WriteRoute struct {
	Pattern, Name string
	Kind          OpKind
}

// WriteRoutes are the five direct write routes, one per op kind.
var WriteRoutes = []WriteRoute{
	{"PUT /wrappers/{key}", "put", OpPut},
	{"DELETE /wrappers/{key}", "delete", OpDelete},
	{"PUT /wrappers/{key}/canary", "canary_put", OpCanary},
	{"POST /wrappers/{key}/promote", "promote", OpPromote},
	{"POST /wrappers/{key}/rollback", "rollback", OpRollback},
}

// WriteOp turns a direct write request of one kind into the op it asks
// for: the path key, the body for put and canary (the wrapper's persisted
// JSON, admitted and read by ReadBody) and the optional ?version=N guard
// for promote and rollback.
func WriteOp(w http.ResponseWriter, r *http.Request, kind OpKind, limit int64) (Op, *Rejection) {
	op := Op{Kind: kind, Key: r.PathValue("key")}
	switch kind {
	case OpPut, OpCanary:
		body, rej := ReadBody(w, r, "application/json", limit)
		if rej != nil {
			return op, rej
		}
		op.Payload = body
	case OpPromote, OpRollback:
		if q := r.URL.Query().Get("version"); q != "" {
			v, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				return op, &Rejection{http.StatusBadRequest, "decode", fmt.Errorf("bad version %q: %w", q, err)}
			}
			op.Version = v
		}
	}
	return op, nil
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with {"error": err's text}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
