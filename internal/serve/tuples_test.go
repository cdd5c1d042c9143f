package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/htmltok"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// tuplePayload persists a hand-written record wrapper: one (name cell,
// price cell) pair per table row.
func tuplePayload(t *testing.T) []byte {
	t.Helper()
	data, err := json.Marshal(map[string]any{
		"version": 1,
		"kind":    "tuple",
		"expr":    ".* <TD> /TD <TD> .*",
		"sigma":   []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "H1", "/H1", "P", "/P"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const tuplesPage = `<h1>Parts List</h1>
<table>
<tr><td>bolt M4</td><td>$0.10</td></tr>
<tr><td>nut M4</td><td>$0.08</td></tr>
<tr><td>washer M4</td><td>$0.02</td></tr>
</table>`

// tupleRegion is one slot of one record in the tuples response: the
// reference shape whose encoding/json encoding the route's writer must
// reproduce byte for byte.
type tupleRegion struct {
	TokenIndex int    `json:"tokenIndex"`
	Start      int    `json:"start"`
	End        int    `json:"end"`
	Source     string `json:"source"`
}

type tuplesResponse struct {
	Key     string          `json:"key"`
	Arity   int             `json:"arity"`
	Count   int             `json:"count"`
	Records [][]tupleRegion `json:"records"`
}

func TestServeExtractTuples(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, "PUT", "/wrappers/parts", tuplePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("register tuple wrapper: %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, s, "POST", "/extract/tuples/parts", []byte(tuplesPage))
	if rec.Code != http.StatusOK {
		t.Fatalf("tuples: %d: %s", rec.Code, rec.Body)
	}
	var resp tuplesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Arity != 2 || resp.Count != 3 || len(resp.Records) != 3 {
		t.Fatalf("resp = %+v, want arity 2 count 3", resp)
	}
	for i, rec := range resp.Records {
		if len(rec) != 2 {
			t.Fatalf("record %d has %d slots", i, len(rec))
		}
		if rec[0].Start >= rec[1].Start {
			t.Errorf("record %d slots out of order", i)
		}
		if i > 0 && resp.Records[i-1][0].Start >= rec[0].Start {
			t.Error("records out of document order")
		}
		for j, reg := range rec {
			if !strings.HasPrefix(reg.Source, "<td") {
				t.Errorf("record %d slot %d = %q", i, j, reg.Source)
			}
		}
	}
	// A recordless page answers an empty list, not an error.
	rec = do(t, s, "POST", "/extract/tuples/parts", []byte(`<h1>empty</h1>`))
	if rec.Code != http.StatusOK {
		t.Fatalf("empty page: %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 || len(resp.Records) != 0 {
		t.Fatalf("empty page resp = %+v", resp)
	}
	// The tuple key must not serve the single-pivot batch surface as if it
	// were a plain wrapper.
	if _, single := s.Active("parts").(*wrapper.Wrapper); single {
		t.Fatal("tuple registration is served as a single-pivot wrapper")
	}
	// The tuple registration loaded through the same memory tier as the
	// single-pivot "vs": both show in the /healthz cache block.
	var h struct {
		Sites int `json:"sites"`
		Cache struct {
			Entries int   `json:"entries"`
			Misses  int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(do(t, s, "GET", "/healthz", nil).Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Sites != 2 || h.Cache.Entries != 2 || h.Cache.Misses != 2 {
		t.Errorf("healthz = %+v, want 2 sites and 2 cached artifacts from 2 misses", h)
	}
}

func TestServeTuples404vs422(t *testing.T) {
	s, _ := testServer(t) // "vs" is a single-pivot wrapper
	o := s.obs
	// Unregistered key: 404.
	if rec := do(t, s, "POST", "/extract/tuples/nosuch", []byte(tuplesPage)); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", rec.Code)
	}
	// Known single-pivot key: 422, counted by reason.
	rec := do(t, s, "POST", "/extract/tuples/vs", []byte(tuplesPage))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("single-pivot key: %d, want 422: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "single-pivot") {
		t.Errorf("422 body does not explain the arity mismatch: %s", rec.Body)
	}
	snap := o.Metrics.Snapshot()
	if n := snap.Counters[obs.WithLabels("serve_rejected_total", "reason", "arity")]; n != 1 {
		t.Errorf("serve_rejected_total{reason=arity} = %d, want 1", n)
	}
	// And the converse: the tuple key is a 422 on the stream route, counted
	// the same way, while an unknown key stays a 404 there.
	if rec := do(t, s, "PUT", "/wrappers/parts", tuplePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("register tuple wrapper: %d", rec.Code)
	}
	rec = do(t, s, "POST", "/extract/stream/parts", []byte(tuplesPage))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("stream route on a tuple key: %d, want 422: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "/extract/tuples/parts") {
		t.Errorf("422 body does not point at the tuples route: %s", rec.Body)
	}
	snap = o.Metrics.Snapshot()
	if n := snap.Counters[obs.WithLabels("serve_rejected_total", "reason", "arity")]; n != 2 {
		t.Errorf("serve_rejected_total{reason=arity} = %d, want 2", n)
	}
	if rec := do(t, s, "POST", "/extract/stream/nosuch", []byte(tuplesPage)); rec.Code != http.StatusNotFound {
		t.Fatalf("stream route on an unknown key: %d, want 404", rec.Code)
	}
	// The batch surface keeps its per-document unknown-key error for a tuple
	// key, keeping the surfaces honestly separated.
	res := extractOne(t, s, "parts", tuplesPage)
	if res.OK || !strings.Contains(res.Error, "no wrapper registered") {
		t.Errorf("batch surface served a tuple key: %+v", res)
	}
}

// TestServeTuplesRollout drives a tuple wrapper through the versioned
// rollout machinery — replicated put, canary, promote — confirming k-ary
// payloads ride the same replication path as single-pivot ones.
func TestServeTuplesRollout(t *testing.T) {
	s, _ := testServer(t)
	tp := tuplePayload(t)
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpPut, Key: "parts", Payload: tp})); rec.Code != http.StatusCreated {
		t.Fatalf("replicated tuple put: %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "POST", "/extract/tuples/parts", []byte(tuplesPage)); rec.Code != http.StatusOK {
		t.Fatalf("tuples after replicated put: %d", rec.Code)
	}
	// Stage the same payload as a canary and promote it.
	if rec := doFrame(t, s, cluster.EncodeOp(cluster.Op{Kind: cluster.OpCanary, Key: "parts", Version: 9, Payload: tp})); rec.Code != http.StatusCreated {
		t.Fatalf("replicated tuple canary: %d: %s", rec.Code, rec.Body)
	}
	if _, tuple := s.keys["parts"].canary.(*wrapper.TupleWrapper); !tuple {
		t.Fatal("tuple canary not staged")
	}
	if rec := do(t, s, "POST", "/wrappers/parts/promote", nil); rec.Code != http.StatusOK {
		t.Fatalf("promote tuple canary: %d", rec.Code)
	}
	if s.keys["parts"].canary != nil {
		t.Fatal("promoted canary still staged")
	}
	body := decodeVersions(t, s, "parts")
	if versionOf(body, "active") != 9 || body["lastOutcome"] != "promoted" {
		t.Fatalf("after tuple promote: %v", body)
	}
	if rec := do(t, s, "POST", "/extract/tuples/parts", []byte(tuplesPage)); rec.Code != http.StatusOK {
		t.Fatalf("tuples after promote: %d", rec.Code)
	}
	// A single-pivot PUT over the tuple key flips the kind.
	single := trainedPayload(t)
	if rec := do(t, s, "PUT", "/wrappers/parts", single); rec.Code != http.StatusCreated {
		t.Fatalf("kind-flip put: %d", rec.Code)
	}
	if _, single := s.Active("parts").(*wrapper.Wrapper); !single {
		t.Fatal("kind flip left the tuple wrapper registered")
	}
	if rec := do(t, s, "POST", "/extract/tuples/parts", []byte(tuplesPage)); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("tuples on flipped key: %d, want 422", rec.Code)
	}
	// DELETE removes the (now single-pivot) key entirely.
	if rec := do(t, s, "DELETE", "/wrappers/parts", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/extract/tuples/parts", []byte(tuplesPage)); rec.Code != http.StatusNotFound {
		t.Fatalf("tuples on deleted key: %d, want 404", rec.Code)
	}
}

// TestServeTuplesRestart registers a tuple wrapper on a disk-backed server
// and confirms a restarted server restores it — registry replay through
// wrapper.LoadAny, artifact decode through the shared disk tier.
func TestServeTuplesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: dir, CacheCap: 8, DiskCap: -1, Observer: obs.New(), RestoreLog: io.Discard}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1, "PUT", "/wrappers/parts", tuplePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("register: %d: %s", rec.Code, rec.Body)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s2, "POST", "/extract/tuples/parts", []byte(tuplesPage))
	if rec.Code != http.StatusOK {
		t.Fatalf("tuples after restart: %d: %s", rec.Code, rec.Body)
	}
	var resp tuplesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 {
		t.Fatalf("restored wrapper found %d records, want 3", resp.Count)
	}
}

func TestServeTuplesWrapperKindStable(t *testing.T) {
	// IsTuplePayload is the kind discriminator the whole serve layer
	// branches on; a single-pivot payload must not probe as a tuple.
	if wrapper.IsTuplePayload(trainedPayload(t)) {
		t.Fatal("single-pivot payload probed as tuple")
	}
	if !wrapper.IsTuplePayload(tuplePayload(t)) {
		t.Fatal("tuple payload not recognized")
	}
}

// TestExtractDoesNotGrowSymbolTable: extraction resolves page tokens by
// lookup, so pages full of unseen tag names leave the symbol tables, which
// every wrapper loaded from a cached artifact shares, exactly as they were.
func TestExtractDoesNotGrowSymbolTable(t *testing.T) {
	s, _ := testServer(t)
	payload := tuplePayload(t)
	if rec := do(t, s, "PUT", "/wrappers/parts", payload); rec.Code != http.StatusCreated {
		t.Fatalf("register tuple wrapper: %d: %s", rec.Code, rec.Body)
	}
	var p struct {
		Expr  string   `json:"expr"`
		Sigma []string `json:"sigma"`
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	comp, err := s.cache.LoadTuple(p.Expr, p.Sigma, s.opt) // the cached artifact "parts" shares
	if err != nil {
		t.Fatal(err)
	}
	single, tuple := s.Active("vs").(*wrapper.Wrapper).Table(), comp.Tab
	singleLen, tupleLen := single.Len(), tuple.Len()
	for i := 0; i < 50; i++ {
		page := fmt.Sprintf("<novel%d><table><tr><td>a</td><td>b</td></tr></table></novel%d>", i, i)
		body, err := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: page}}})
		if err != nil {
			t.Fatal(err)
		}
		if rec := do(t, s, "POST", "/extract", body); rec.Code != http.StatusOK {
			t.Fatalf("extract: %d: %s", rec.Code, rec.Body)
		}
		if rec := do(t, s, "POST", "/extract/tuples/parts", []byte(page)); rec.Code != http.StatusOK {
			t.Fatalf("tuples: %d: %s", rec.Code, rec.Body)
		}
	}
	if n := single.Len(); n != singleLen {
		t.Errorf("POST /extract grew the single-pivot table from %d to %d names", singleLen, n)
	}
	if n := tuple.Len(); n != tupleLen {
		t.Errorf("POST /extract/tuples grew the tuple table from %d to %d names", tupleLen, n)
	}
}

// encodeTuples is the reference tuples body: encoding/json's default
// encoder over the reference shape, as cluster.WriteJSON writes it.
func encodeTuples(t *testing.T, resp tuplesResponse) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTuplesBodyMatchesEncoder: the route writes each record as the cursor
// yields it, and its bodies equal the reference encoding of ExtractAll's
// records — on the parts page, on a recordless page, and on a page whose
// pivot tags carry '&', U+2028 and an invalid UTF-8 byte, each of which
// encoding/json escapes.
func TestTuplesBodyMatchesEncoder(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, "PUT", "/wrappers/parts", tuplePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("register tuple wrapper: %d: %s", rec.Code, rec.Body)
	}
	tw := s.Active("parts").(*wrapper.TupleWrapper)
	escapes := "<table><tr><td title=\"a&b\">x</td><td class=\"\u2028\xff\">y</td></tr></table>"
	for _, page := range []string{tuplesPage, `<h1>empty</h1>`, escapes} {
		records, err := tw.ExtractAll(page)
		if err != nil {
			t.Fatal(err)
		}
		want := tuplesResponse{Key: "parts", Arity: tw.Arity(), Count: len(records), Records: make([][]tupleRegion, len(records))}
		for i, rec := range records {
			want.Records[i] = make([]tupleRegion, len(rec))
			for j, reg := range rec {
				want.Records[i][j] = tupleRegion{TokenIndex: reg.TokenIndex, Start: reg.Span.Start, End: reg.Span.End, Source: reg.Source}
			}
		}
		rec := do(t, s, "POST", "/extract/tuples/parts", []byte(page))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%.30q: status %d, Content-Type %q", page, rec.Code, rec.Header().Get("Content-Type"))
		}
		if wantBody := encodeTuples(t, want); !bytes.Equal(rec.Body.Bytes(), wantBody) {
			t.Errorf("%.30q: body\n%s\nwant\n%s", page, rec.Body, wantBody)
		}
	}
	body := do(t, s, "POST", "/extract/tuples/parts", []byte(escapes)).Body.String()
	for _, esc := range []string{`\u003ctd`, `\u0026`, `\u2028`, `\ufffd`, `\"`} {
		if !strings.Contains(body, esc) {
			t.Errorf("escapes page body lacks %s: %s", esc, body)
		}
	}
}

// FuzzTuplesBody differentials the tuples route's writer against
// encoding/json: for an arbitrary key, arity and records, whose sources
// draw on '<', '>', '&', quotes, control bytes, U+2028, U+2029 and invalid
// UTF-8, tuplesBody must write exactly what json.NewEncoder writes for the
// reference shape. data is cut into records of k slots; each slot takes a
// header byte, which sets its numbers and its source's length, and then
// that many source bytes. The writer gets one record slice, reused, as
// ExtractAllTo lends it.
func FuzzTuplesBody(f *testing.F) {
	f.Add("parts", 2, uint8(2), []byte("\x04<td>\x09<td x=1>\x04<td>\x05<TD/>"))
	f.Add("a<b>&c\"\\", 3, uint8(1), []byte("\x0f<td title=\"&\">\x02\x00\x1f\x03\b\f\n\x02\r\t\x01\x7f"))
	f.Add("k\u2028\u2029", -1, uint8(3), []byte("\x03\xe2\x80\xa8\x03\xe2\x80\xa9\x02\xff\xfe\x02\xe2\x80\x03\xef\xbf\xbd"))
	f.Add("\xff", 0, uint8(0), []byte("\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, key string, arity int, slots uint8, data []byte) {
		k := int(slots % 4)
		want := tuplesResponse{Key: key, Arity: arity, Records: [][]tupleRegion{}}
		b := &tuplesBody{}
		rec := make([]wrapper.StreamRegion, k)
		for len(data) > 0 {
			row := make([]tupleRegion, k)
			if k == 0 {
				data = data[1:]
			}
			for j := range rec {
				var h int
				var src []byte
				if len(data) > 0 {
					h = int(data[0])
					n := min(h%32, len(data)-1)
					src, data = data[1:1+n], data[1+n:]
				}
				rec[j] = wrapper.StreamRegion{TokenIndex: h - 128, Span: htmltok.Span{Start: h << 16, End: h * h}, Source: src}
				row[j] = tupleRegion{TokenIndex: h - 128, Start: h << 16, End: h * h, Source: string(src)}
			}
			if err := b.add(rec); err != nil {
				t.Fatal(err)
			}
			want.Records = append(want.Records, row)
		}
		want.Count = len(want.Records)
		w := httptest.NewRecorder()
		b.write(w, key, arity)
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, Content-Type %q", w.Code, w.Header().Get("Content-Type"))
		}
		if wantBody := encodeTuples(t, want); !bytes.Equal(w.Body.Bytes(), wantBody) {
			t.Fatalf("body\n%q\nwant\n%q", w.Body.Bytes(), wantBody)
		}
	})
}

// TestExtractProbeTuples: the refresh probe stops at a tuple key's first
// record, and answers what it answered when it drained ExtractAll: nil for
// a page with records, ErrNotExtracted for a recordless page, and the
// budget error for a forward pass over the node budget.
func TestExtractProbeTuples(t *testing.T) {
	s, err := New(Config{CacheCap: 8, Observer: obs.New(), Options: machine.Options{MaxStates: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "PUT", "/wrappers/parts", tuplePayload(t)); rec.Code != http.StatusCreated {
		t.Fatalf("register tuple wrapper: %d: %s", rec.Code, rec.Body)
	}
	tw := s.Active("parts").(*wrapper.TupleWrapper)
	big := "<table>" + strings.Repeat("<tr><td>bolt</td><td>$0.10</td></tr>", 40) + "</table>"
	var outcomes []string
	for _, page := range []string{tuplesPage, `<h1>empty</h1>`, big} {
		records, want := tw.ExtractAll(page)
		if want == nil && len(records) == 0 {
			want = wrapper.ErrNotExtracted
		}
		got := s.Extract("parts", page)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%.30q: probe = %v, ExtractAll gives %v", page, got, want)
		}
		outcomes = append(outcomes, fmt.Sprint(errors.Is(got, wrapper.ErrNotExtracted), errors.Is(got, machine.ErrBudget)))
	}
	if want := []string{"false false", "true false", "false true"}; !reflect.DeepEqual(outcomes, want) {
		t.Errorf("probe outcomes (miss, budget) = %v, want %v", outcomes, want)
	}
}
