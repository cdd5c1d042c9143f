package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// marshalDocs is the body a Go client sends: json.Marshal output, which
// escapes every <, > and & and the line separators U+2028 and U+2029.
func marshalDocs(t testing.TB, docs ...wrapper.BatchDoc) []byte {
	t.Helper()
	body, err := json.Marshal(extractRequest{Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// declinedBodies are valid and malformed bodies the fast path must hand to
// json.Unmarshal, one per kind of deviation from the frozen shape.
var declinedBodies = []string{
	`{"Docs":[{"key":"vs","html":"<p>"}]}`,             // case-folded name
	`{"docs":[{"KEY":"vs","html":"<p>"}]}`,             // case-folded name
	`{"\u0064ocs":[{"key":"vs","html":"<p>"}]}`,        // escaped name
	`{"docs":[{"k\u0065y":"vs","html":"<p>"}]}`,        // escaped name
	`{"docs":[{"key":"vs","html":"<p>"}],"extra":1}`,   // unknown member
	`{"docs":[{"key":"vs","html":"<p>","extra":"x"}]}`, // unknown member
	`{"docs":[{"key":"a","key":"vs","html":"<p>"}]}`,   // duplicate member
	`{"docs":[{"key":"a","key":"vs"}]}`,
	`{"docs":[{"key":"a","html":"b"}],"docs":[{"key":"c"}]}`, // duplicate member
	`null`,
	`{"docs":null}`,
	`{"docs":[null]}`,
	`{"docs":[{"key":null,"html":"<p>"}]}`,
	`{"docs":[{"key":1,"html":"<p>"}]}`, // non-string value
	`{"docs":[{"key":"vs","html":["<p>"]}]}`,
	`{"docs":{}}`,
	`{}`,
	`{"docs":[{"key":"vs"}]}`, // missing member
	`{"docs":[{}]}`,
	"{\"docs\":[{\"key\":\"vs\",\"html\":\"a\x01b\"}]}", // raw control byte
	"{\"docs\":[{\"key\":\"vs\",\"html\":\"tab\tin\"}]}",
	"{\"docs\":[{\"key\":\"vs\",\"html\":\"\xff<p>\"}]}",      // invalid UTF-8
	"{\"docs\":[{\"key\":\"vs\",\"html\":\"\xed\xa0\x80\"}]}", // UTF-8 surrogate
	"{\"docs\":[{\"key\":\"vs\",\"html\":\"\xc3\"}]}",         // truncated sequence
	`{"docs":[{"key":"vs","html":"\ud800"}]}`,                 // lone surrogate
	`{"docs":[{"key":"vs","html":"\udc00\ud800"}]}`,           // reversed pair
	`{"docs":[{"key":"vs","html":"\ud83dA"}]}`,                // high half alone
	`{"docs":[{"key":"vs","html":"\ud83d\u0041"}]}`,           // high half, no low
	`{"docs":[]} x`, // trailing data
	`{"docs":[]}{}`,
	"\xef\xbb\xbf{\"docs\":[]}", // byte-order mark
	``,
	` `,
	`{`,
	`{"docs":[{"key":"vs","html":"<p>"},]}`,
	`{"docs":[{"key":"vs","html":"<p>"}}`,
	`{"docs":[{"key":"vs" "html":"<p>"}]}`,
	`{"docs":[{"key":"vs","html":"\x"}]}`,
	`{"docs":[{"key":"vs","html":"\u12"}]}`,
	`{"docs":[{"key":"vs","html":"\u12g4"}]}`,
	`{"docs":[{"key":"vs","html":"\`,
	`{"docs":[{"key":"vs","html":"<p>`,
	`[]`,
	`"docs"`,
}

// FuzzExtractRequestDecode: whenever the fast path accepts a body,
// json.Unmarshal accepts it too and yields the same documents; it never
// writes to the body; and DecodeExtractRequest answers every body exactly
// as json.Unmarshal does.
func FuzzExtractRequestDecode(f *testing.F) {
	pages := []string{pageTop, pageBottom, tuplesPage, futurePage,
		"Größe — 価格 😀 \u2028\u2029 &amp;", "ctl \x00\x01\x1f\x7f\t\n\r", "bad \xff\xfe \xed\xa0\x80 end"}
	for _, p := range pages {
		f.Add(marshalDocs(f, wrapper.BatchDoc{Key: "vs", HTML: p}))
	}
	f.Add(marshalDocs(f, wrapper.BatchDoc{Key: "vs", HTML: pageTop}, wrapper.BatchDoc{Key: "ünï", HTML: pageBottom}))
	f.Add(marshalDocs(f))
	for _, b := range fastPathBodies(f) {
		f.Add(b)
	}
	for _, b := range declinedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		docs, ok := decodeFast(body)
		if !bytes.Equal(body, orig) {
			t.Fatalf("fast path wrote to the body: %q -> %q", orig, body)
		}
		var req extractRequest
		err := json.Unmarshal(body, &req)
		if ok {
			if err != nil {
				t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", body, err)
			}
			if !reflect.DeepEqual(docs, req.Docs) {
				t.Fatalf("body %q: fast path %#v, json.Unmarshal %#v", body, docs, req.Docs)
			}
		}
		got, gotErr := DecodeExtractRequest(body)
		switch {
		case (gotErr == nil) != (err == nil):
			t.Fatalf("body %q: DecodeExtractRequest error %v, json.Unmarshal error %v", body, gotErr, err)
		case err != nil:
			if gotErr.Error() != err.Error() {
				t.Fatalf("body %q: error %q, want %q", body, gotErr, err)
			}
		case !reflect.DeepEqual(got, req.Docs):
			t.Fatalf("body %q: DecodeExtractRequest %#v, json.Unmarshal %#v", body, got, req.Docs)
		}
	})
}

// fastPathBodies are the encodings real clients send, each of which the fast
// path must take: json.Marshal, json.MarshalIndent, an Encoder that leaves
// HTML unescaped (with its trailing newline), and the ASCII-only shape of
// Python's json.dumps, which escapes every non-ASCII character and spells
// one outside the BMP as a surrogate pair.
func fastPathBodies(t testing.TB) map[string][]byte {
	t.Helper()
	docs := []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}, {Key: "café", HTML: pageBottom + " 😀 "}}
	indented, err := json.MarshalIndent(extractRequest{Docs: docs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var unescaped bytes.Buffer
	enc := json.NewEncoder(&unescaped)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(extractRequest{Docs: docs}); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"Marshal":         marshalDocs(t, docs...),
		"MarshalIndent":   indented,
		"EscapeHTMLfalse": unescaped.Bytes(),
		"ascii": []byte(`{"docs": [{"key": "caf\u00e9", "html": "<p>\ud83d\ude00 \u00e9\/\"\\\b\f\n\r\t</p>"}, ` +
			`{"html": "<b>x</b>", "key": "vs"}]}`),
	}
}

// TestDecodeFastPathTaken guards against a fast path that declines
// everything, which the fuzz target alone would pass: every body real
// clients send must decode on the fast path, to json.Unmarshal's documents.
func TestDecodeFastPathTaken(t *testing.T) {
	for name, body := range fastPathBodies(t) {
		docs, ok := decodeFast(body)
		if !ok {
			t.Errorf("%s: fast path declined %q", name, body)
			continue
		}
		var req extractRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(docs, req.Docs) {
			t.Errorf("%s: fast path %#v, json.Unmarshal %#v", name, docs, req.Docs)
		}
	}
	docs, ok := decodeFast(fastPathBodies(t)["ascii"])
	if want := "<p>😀 é/\"\\\b\f\n\r\t</p>"; !ok || docs[0].Key != "café" || docs[0].HTML != want {
		t.Errorf("ascii body decoded to %#v, want key café and html %q", docs, want)
	}
	if docs, ok := decodeFast([]byte(" {\"docs\" :\t[ ]\r\n} ")); !ok || docs == nil || len(docs) != 0 {
		t.Errorf("empty batch = %#v, %v; want an empty non-nil slice, as json.Unmarshal gives", docs, ok)
	}
	for _, b := range declinedBodies {
		if _, ok := decodeFast([]byte(b)); ok {
			t.Errorf("fast path accepted %q", b)
		}
	}
}

// TestExtractDecodeErrorText drives declined bodies through the handler: a
// malformed one answers 400 with json.Unmarshal's error text, counted once
// as a decode rejection, and a valid one the fast path declines answers
// exactly what its json.Unmarshal documents answer.
func TestExtractDecodeErrorText(t *testing.T) {
	s, _ := testServer(t)
	page := strings.TrimSuffix(strings.TrimPrefix(string(marshalDocs(t, wrapper.BatchDoc{HTML: pageTop})), `{"docs":[{"key":"","html":`), `}]}`)
	rejected := func() int64 {
		return s.obs.Metrics.Snapshot().Counters[obs.WithLabels("serve_rejected_total", "reason", "decode")]
	}

	for _, body := range []string{
		`{`,
		``,
		`[]`,
		`{"docs":[{"key":1,"html":"<p>"}]}`,
		`{"docs":"vs"}`,
		`{"docs":[{"key":"vs","html":` + page + `},]}`,
		`{"docs":[{"key":"vs","html":` + page + `}]} x`,
		"{\"docs\":[{\"key\":\"vs\",\"html\":\"a\x01b\"}]}",
		`{"docs":[{"key":"vs","html":"\u12g4"}]}`,
	} {
		var req extractRequest
		uerr := json.Unmarshal([]byte(body), &req)
		if uerr == nil {
			t.Fatalf("test body %q is valid", body)
		}
		before := rejected()
		rec := do(t, s, "POST", "/extract", []byte(body))
		var got struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("body %q: response %q: %v", body, rec.Body, err)
		}
		if want := "decoding request: " + uerr.Error(); rec.Code != http.StatusBadRequest || got.Error != want {
			t.Errorf("body %q: %d %q, want 400 %q", body, rec.Code, got.Error, want)
		}
		if n := rejected() - before; n != 1 {
			t.Errorf("body %q: counted %d decode rejections, want 1", body, n)
		}
	}

	for _, body := range []string{
		`{"Docs":[{"Key":"vs","HTML":` + page + `}]}`,
		`{"docs":[{"key":"vs","html":` + page + `,"extra":[1,{"x":null}]},{"key":"vs","html":"<p>"}],"more":true}`,
		`{"docs":[{"key":"vs","html":` + page[:len(page)-1] + `\ud800"}]}`,
		"{\"docs\":[{\"key\":\"vs\",\"html\":" + page[:len(page)-1] + "\xff\"},{\"key\":\"v\xffs\",\"html\":\"<p>\"}]}",
	} {
		if _, ok := decodeFast([]byte(body)); ok {
			t.Fatalf("fast path accepted %q", body)
		}
		var req extractRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("test body %q: %v", body, err)
		}
		rec := do(t, s, "POST", "/extract", []byte(body))
		want := do(t, s, "POST", "/extract", marshalDocs(t, req.Docs...))
		if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
			t.Errorf("body %q: %d %s, want 200 %s", body, rec.Code, rec.Body, want.Body)
		}
		if !strings.Contains(rec.Body.String(), `"ok":true`) {
			t.Errorf("body %q: no document extracted: %s", body, rec.Body)
		}
	}
}

// TestReadBodyOverstatedLength runs on the default 64 MiB body limit, where
// the read-hint cap matters: a Content-Length that claims the whole limit
// for a small batch allocates the capped buffer, not the claim, and bodies
// of undeclared or understated length still read whole.
func TestReadBodyOverstatedLength(t *testing.T) {
	s, _ := testServer(t)
	mux := s.Mux()
	body := marshalDocs(t, wrapper.BatchDoc{Key: "vs", HTML: pageTop}, wrapper.BatchDoc{Key: "vs", HTML: pageBottom})
	for _, c := range []struct {
		name     string
		declared int64
	}{
		{"overstated", cluster.DefaultMaxBody},
		{"chunked", -1},
		{"understated", 16},
	} {
		req := httptest.NewRequest("POST", "/extract", bytes.NewReader(body))
		req.ContentLength = c.declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mux.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"ok":true`) != 2 {
			t.Errorf("%s: %d %s, want both documents extracted", c.name, rec.Code, rec.Body)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
			t.Errorf("%s: request allocated %d bytes, want under 2 MiB", c.name, n)
		}
	}
}

// TestDecodeExtractRequestAllocs bounds the fast path's allocations: the
// arena, its one string, the document slice and the growth of the span list
// past its first 16 entries. json.Unmarshal takes 12 to 209 on the same
// bodies.
func TestDecodeExtractRequestAllocs(t *testing.T) {
	for _, size := range []int{300, 4 << 10, 40 << 10} {
		page := pageOfSize(size)
		for _, n := range []int{1, 16, 64} {
			docs := make([]wrapper.BatchDoc, n)
			for i := range docs {
				docs[i] = wrapper.BatchDoc{Key: fmt.Sprintf("site-%d", i), HTML: page}
			}
			body := marshalDocs(t, docs...)
			if _, ok := decodeFast(body); !ok {
				t.Fatalf("%d docs of %d B: fast path declined", n, size)
			}
			allocs := testing.AllocsPerRun(10, func() { decodeFast(body) })
			if allocs > 12 {
				t.Errorf("%d docs of %d B: %.0f allocations, want at most 12", n, size, allocs)
			}
		}
	}
}

// pageOfSize is a Figure-1 page padded with link rows to about size bytes.
func pageOfSize(size int) string {
	var b strings.Builder
	b.WriteString(pageBottom[:len(pageBottom)-len("</table>")])
	for i := 0; b.Len() < size-len("</table>"); i++ {
		fmt.Fprintf(&b, "<tr><td><a href=\"/p/%d\">item %d &amp; more</a></td></tr>\n", i, i)
	}
	b.WriteString("</table>")
	return b.String()
}
