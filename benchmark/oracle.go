package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/machine"
	"resilex/internal/spanner"
	"resilex/internal/wrapper"
)

// answerJSON is one single-pivot extraction result as cmd/serve writes it:
// an element of the POST /extract results array, or the whole body of
// POST /extract/stream/{key}.
type answerJSON struct {
	Index      int    `json:"index"`
	Key        string `json:"key"`
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	TokenIndex int    `json:"tokenIndex,omitempty"`
	Start      int    `json:"start,omitempty"`
	End        int    `json:"end,omitempty"`
	Source     string `json:"source,omitempty"`
}

type batchJSON struct {
	Results []answerJSON `json:"results"`
}

// slotJSON is one extracted slot of one record.
type slotJSON struct {
	TokenIndex int    `json:"tokenIndex"`
	Start      int    `json:"start"`
	End        int    `json:"end"`
	Source     string `json:"source"`
}

// tuplesJSON is the POST /extract/tuples/{key} response.
type tuplesJSON struct {
	Key     string       `json:"key"`
	Arity   int          `json:"arity"`
	Count   int          `json:"count"`
	Records [][]slotJSON `json:"records"`
}

// putJSON is the part of the PUT /wrappers/{key} response the check reads.
type putJSON struct {
	Key       string `json:"key"`
	Version   uint64 `json:"version"`
	Persisted *bool  `json:"persisted"`
}

// oracle computes expected answers with each semantic's reference
// implementation, on wrappers loaded separately from anything the server
// or the replay runs: the two-scan Wrapper.Extract for single-pivot keys,
// and the naive k-nested spanner.NaiveTuples for tuple keys.
type oracle struct {
	wrappers map[string]*wrapper.Wrapper
	tupleRef map[string]tupleOracle
}

type tupleOracle struct {
	mapper *htmltok.Mapper
	comp   *extract.CompiledTuple
}

func newOracle(singles, tuples []registration) *oracle {
	o := &oracle{wrappers: map[string]*wrapper.Wrapper{}, tupleRef: map[string]tupleOracle{}}
	for _, r := range singles {
		w, err := wrapper.Load(r.payload, machine.Options{})
		if err != nil {
			panic(fmt.Sprintf("benchmark: oracle: loading %s: %v", r.key, err))
		}
		o.wrappers[r.key] = w
	}
	for _, r := range tuples {
		var p struct {
			Expr  string   `json:"expr"`
			Sigma []string `json:"sigma"`
		}
		if err := json.Unmarshal(r.payload, &p); err != nil {
			panic(err)
		}
		comp, err := extract.CompileTupleArtifact(p.Expr, p.Sigma, machine.Options{})
		if err != nil {
			panic(fmt.Sprintf("benchmark: oracle: compiling %s: %v", r.key, err))
		}
		o.tupleRef[r.key] = tupleOracle{mapper: htmltok.NewMapper(comp.Tab), comp: comp}
	}
	return o
}

// single is the expected result for document index i of a read. A page the
// wrapper does not parse is a miss: the server must report it as one, with
// the same error text.
func (o *oracle) single(i int, d doc) answerJSON {
	a := answerJSON{Index: i, Key: d.key}
	reg, err := o.wrappers[d.key].Extract(d.html)
	switch {
	case errors.Is(err, wrapper.ErrNotExtracted):
		a.Error = err.Error()
	case err != nil:
		panic(fmt.Sprintf("benchmark: oracle: %s: %v", d.key, err))
	default:
		a.OK, a.TokenIndex, a.Start, a.End, a.Source = true, reg.TokenIndex, reg.Span.Start, reg.Span.End, reg.Source
	}
	return a
}

// tuples is the expected records response for d.
func (o *oracle) tuples(d doc) tuplesJSON {
	t := o.tupleRef[d.key]
	page := t.mapper.Map(d.html)
	vecs := spanner.NaiveTuples(t.comp.Tuple, page.Syms)
	out := tuplesJSON{Key: d.key, Arity: t.comp.Tuple.Arity(), Count: len(vecs), Records: make([][]slotJSON, len(vecs))}
	for i, v := range vecs {
		rec := make([]slotJSON, len(v))
		for j, pos := range v {
			sp := page.SpanOf(pos)
			rec[j] = slotJSON{TokenIndex: pos, Start: sp.Start, End: sp.End, Source: page.Source(pos)}
		}
		out.Records[i] = rec
	}
	return out
}

// checkRead verifies a read response against the oracle's answer.
func checkRead(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", o.method, o.path, status, body)
	}
	var got, want any
	switch w := o.want.(type) {
	case []answerJSON:
		var b batchJSON
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("%s: decoding response: %w", o.path, err)
		}
		got, want = b.Results, w
	case answerJSON:
		var a answerJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("%s: decoding response: %w", o.path, err)
		}
		got, want = a, w
	case tuplesJSON:
		var t tuplesJSON
		if err := json.Unmarshal(body, &t); err != nil {
			return fmt.Errorf("%s: decoding response: %w", o.path, err)
		}
		got, want = t, w
	default:
		return fmt.Errorf("%s: no expected answer", o.path)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: answer differs from the oracle: %s", o.path, firstDiff(got, want))
	}
	return nil
}

// firstDiff describes where got departs from want: the first differing
// element of two slices, or both values whole, as JSON cut to a readable
// length.
func firstDiff(got, want any) string {
	short := func(v any) string {
		b, _ := json.Marshal(v)
		if len(b) > 300 {
			return string(b[:300]) + "…"
		}
		return string(b)
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	if g.Kind() == reflect.Slice && w.Kind() == reflect.Slice {
		for i := 0; i < min(g.Len(), w.Len()); i++ {
			if !reflect.DeepEqual(g.Index(i).Interface(), w.Index(i).Interface()) {
				return fmt.Sprintf("element %d: got %s, want %s", i, short(g.Index(i).Interface()), short(w.Index(i).Interface()))
			}
		}
		return fmt.Sprintf("got %d elements, want %d", g.Len(), w.Len())
	}
	return fmt.Sprintf("got %s, want %s", short(got), short(want))
}

// checkWrite verifies a wrapper PUT response and returns the version the
// server assigned. withRegistry requires the registration to be persisted.
func checkWrite(o *op, status int, body []byte, withRegistry bool) (uint64, error) {
	if status != http.StatusCreated {
		return 0, fmt.Errorf("PUT %s: status %d: %.200s", o.path, status, body)
	}
	var p putJSON
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, fmt.Errorf("PUT %s: decoding response: %w", o.path, err)
	}
	switch {
	case p.Key != o.key || p.Version == 0:
		return 0, fmt.Errorf("PUT %s: response %s names key %q version %d", o.path, body, p.Key, p.Version)
	case withRegistry && (p.Persisted == nil || !*p.Persisted):
		return 0, fmt.Errorf("PUT %s: registration not persisted: %s", o.path, body)
	}
	return p.Version, nil
}
