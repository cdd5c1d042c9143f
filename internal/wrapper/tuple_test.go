package wrapper

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/spanner"
)

const tupleSample1 = `<h1>Parts List</h1>
<table>
<tr><td data-target>bolt M4</td><td data-target>$0.10</td></tr>
</table>`

const tupleSample2 = `<p>updated daily</p>
<table>
<tr><th>name</th><th>price</th></tr>
<tr><td data-target>bolt M4</td><td data-target>$0.12</td></tr>
</table>`

const tupleLive = `<h1>Parts List</h1><p>new!</p>
<table>
<tr><th>name</th><th>price</th></tr>
<tr><td>nut M4</td><td>$0.08</td></tr>
</table>`

func TestTrainTupleEndToEnd(t *testing.T) {
	w, err := TrainTuple([]Sample{
		{HTML: tupleSample1},
		{HTML: tupleSample2},
	}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	if w.Arity() != 2 {
		t.Fatalf("arity = %d", w.Arity())
	}
	regions, err := w.Extract(tupleLive)
	if err != nil {
		t.Fatalf("live extract: %v", err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
	// Both slots are TD cells of the data row.
	for j, r := range regions {
		if !strings.HasPrefix(r.Source, "<td") {
			t.Errorf("slot %d = %q", j, r.Source)
		}
	}
	if regions[0].Span.Start >= regions[1].Span.Start {
		t.Error("slots out of order")
	}
}

func TestTrainTupleErrors(t *testing.T) {
	if _, err := TrainTuple(nil, Config{}); err == nil {
		t.Error("empty training set accepted")
	}
	// No marks at all.
	if _, err := TrainTuple([]Sample{{HTML: `<p></p>`}}, Config{}); !errors.Is(err, ErrNoTarget) {
		t.Errorf("no marks: %v", err)
	}
	// Arity mismatch across samples.
	_, err := TrainTuple([]Sample{
		{HTML: `<td data-target></td><td data-target></td>`},
		{HTML: `<td data-target></td>`},
	}, Config{})
	if err == nil {
		t.Error("arity mismatch accepted")
	}
	// Marked tag filtered out.
	if _, err := TrainTuple([]Sample{{HTML: `<br data-target>`}}, Config{Skip: []string{"BR"}}); !errors.Is(err, ErrNoTarget) {
		t.Errorf("filtered mark: %v", err)
	}
}

func TestTrainTupleMiss(t *testing.T) {
	w, err := TrainTuple([]Sample{{HTML: tupleSample1}}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Extract(`<p>nothing</p>`); !errors.Is(err, ErrNotExtracted) {
		t.Errorf("err = %v", err)
	}
}

func TestTuplePersistenceRoundTrip(t *testing.T) {
	w, err := TrainTuple([]Sample{
		{HTML: tupleSample1},
		{HTML: tupleSample2},
	}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !IsTuplePayload(data) {
		t.Error("payload not recognized as tuple")
	}
	w2, err := LoadTuple(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err1 := w.Extract(tupleLive)
	r2, err2 := w2.Extract(tupleLive)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("errs: %v vs %v", err1, err2)
	}
	for j := range r1 {
		if r1[j].Span != r2[j].Span {
			t.Errorf("slot %d differs after reload", j)
		}
	}
	// A plain wrapper payload is rejected by LoadTuple and vice versa.
	plain, err := Train([]Sample{{HTML: `<form><input data-target></form>`}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if IsTuplePayload(pd) {
		t.Error("plain wrapper recognized as tuple")
	}
	if _, err := LoadTuple(pd, machine.Options{}); err == nil {
		t.Error("LoadTuple accepted a plain wrapper")
	}
}

func TestTupleRefresh(t *testing.T) {
	w, err := TrainTuple([]Sample{{HTML: tupleSample1}}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	// The single-sample wrapper misses the header-row layout.
	if _, err := w.Extract(tupleLive); !errors.Is(err, ErrNotExtracted) {
		t.Skipf("single-sample wrapper unexpectedly handles the live page: %v", err)
	}
	if all, err := w.ExtractAll(tupleLive); err != nil || len(all) != 0 {
		t.Fatalf("single-sample wrapper: ExtractAll found %d records, %v", len(all), err)
	}
	w2, err := w.Refresh(Sample{HTML: tupleSample2})
	if err != nil {
		t.Fatal(err)
	}
	regions, err := w2.Extract(tupleLive)
	if err != nil {
		t.Fatalf("refreshed tuple wrapper: %v", err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
	// Each wrapper resolves against its own Σ: the refreshed one finds the
	// record, the original still finds none.
	if all, err := w2.ExtractAll(tupleLive); err != nil || len(all) != 1 || !reflect.DeepEqual(all[0], regions) {
		t.Fatalf("refreshed wrapper: ExtractAll %+v, %v; Extract %+v", all, err, regions)
	}
	if all, err := w.ExtractAll(tupleLive); err != nil || len(all) != 0 {
		t.Fatalf("original wrapper after the refresh: ExtractAll found %d records, %v", len(all), err)
	}
	// Training pages still extract.
	if _, err := w2.Extract(tupleSample1); err != nil {
		t.Errorf("original sample regressed: %v", err)
	}
	// Restored wrappers cannot refresh.
	data, err := w2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w3, err := LoadTuple(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w3.Refresh(Sample{HTML: tupleSample1}); err == nil {
		t.Error("provenance-free tuple wrapper refreshed")
	}
	// Arity mismatch in the new sample.
	if _, err := w2.Refresh(Sample{HTML: `<td data-target>x</td>`}); err == nil {
		t.Error("arity-mismatched refresh accepted")
	}
}

// recordsPayload persists a hand-written record-shaped tuple wrapper: one
// (name cell, price cell) pair per table row, the gap between the pivots
// being exactly the closing tag of the first cell.
func recordsPayload(t *testing.T) []byte {
	t.Helper()
	data, err := json.Marshal(persisted{
		Version: 1,
		Kind:    kindTuple,
		Expr:    ".* <TD> /TD <TD> .*",
		Sigma:   []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "H1", "/H1", "P", "/P"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const recordsPage = `<h1>Parts List</h1>
<table>
<tr><td>bolt M4</td><td>$0.10</td></tr>
<tr><td>nut M4</td><td>$0.08</td></tr>
<tr><td>washer M4</td><td>$0.02</td></tr>
</table>`

func TestExtractAllRecords(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	records, err := w.ExtractAll(recordsPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want 3", len(records))
	}
	wantNames := []string{"bolt M4", "nut M4", "washer M4"}
	for i, rec := range records {
		if len(rec) != 2 {
			t.Fatalf("record %d has %d slots", i, len(rec))
		}
		if rec[0].Span.Start >= rec[1].Span.Start {
			t.Errorf("record %d slots out of order", i)
		}
		// The name cell's start tag immediately precedes the wanted text.
		rest := recordsPage[rec[0].Span.End:]
		if got := rest[:len(wantNames[i])]; got != wantNames[i] {
			t.Errorf("record %d name = %q, want %q", i, got, wantNames[i])
		}
	}
	// Records come out in document order.
	for i := 1; i < len(records); i++ {
		if records[i-1][0].Span.Start >= records[i][0].Span.Start {
			t.Error("records not in document order")
		}
	}
	// A page without records is empty, not an error.
	empty, err := w.ExtractAll(`<h1>nothing here</h1>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty page produced %d records", len(empty))
	}
}

func TestExtractAllAgreesWithExtract(t *testing.T) {
	// On an unambiguous single-record page, ExtractAll returns exactly the
	// vector Extract does.
	w, err := TrainTuple([]Sample{
		{HTML: tupleSample1},
		{HTML: tupleSample2},
	}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := w.Extract(tupleLive)
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.ExtractAll(tupleLive)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("ExtractAll found %d records on an unambiguous page", len(all))
	}
	for j := range single {
		if single[j] != all[0][j] {
			t.Errorf("slot %d: Extract %+v vs ExtractAll %+v", j, single[j], all[0][j])
		}
	}
}

// TestExtractAmbiguityNamesTwoVectors: on a page of several records,
// Extract's ambiguity error names the first two vectors, and they differ.
// The spanner's cursor lends each vector only until its next Next, so the
// first must be copied before the second is read.
func TestExtractAmbiguityNamesTwoVectors(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Extract(recordsPage)
	if !errors.Is(err, extract.ErrAmbiguous) {
		t.Fatalf("Extract on a 3-record page: %v, want ErrAmbiguous", err)
	}
	m := regexp.MustCompile(`as (\[[0-9 ]*\]) and as (\[[0-9 ]*\])`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("ambiguity error %q names no two vectors", err)
	}
	all, err := w.ExtractAll(recordsPage)
	if err != nil || len(all) < 2 {
		t.Fatalf("ExtractAll: %d records, %v", len(all), err)
	}
	for i, got := range m[1:] {
		want := fmt.Sprint([]int{all[i][0].TokenIndex, all[i][1].TokenIndex})
		if got != want {
			t.Errorf("vector %d named %s, want record %d's %s", i+1, got, i, want)
		}
	}
	if m[1] == m[2] {
		t.Errorf("ambiguity error %q names one vector twice", err)
	}
}

func TestExtractAllContextCancel(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ExtractAllContext(ctx, recordsPage); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("cancelled ExtractAll: %v", err)
	}
}

// TestTupleExtractMatchesTupleOracle differentials Extract and EvaluateTuple,
// which run the wrapper's spanner program, against Tuple.Extract over the
// oracle's tokenization of the same page: the trained wrapper on the tuple
// fixtures, the record-shaped wrapper (ambiguous on a multi-row page), and
// a page wrapped in a tag outside Σ. Where the oracle finds no vector,
// Extract is ErrNotExtracted; where it finds one, Extract returns its
// regions; where it errs on a second, Extract's error wraps
// extract.ErrAmbiguous. EvaluateTuple, labeled with the oracle's vector,
// scores a Hit exactly where the oracle finds one.
func TestTupleExtractMatchesTupleOracle(t *testing.T) {
	trained, err := TrainTuple([]Sample{{HTML: tupleSample1}, {HTML: tupleSample2}}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	records, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneRow := `<table><tr><td>bolt</td><td>$0.10</td></tr></table>`
	pages := []string{
		tupleSample1, tupleSample2, tupleLive, recordsPage, oneRow,
		"<blink>" + oneRow + "</blink>", "<blink>" + tupleLive + "</blink>", `<p>x</p>`,
	}
	var none, one, ambiguous int
	for wi, tw := range []*TupleWrapper{trained, records} {
		for i, page := range pages {
			doc := oracleMap(tw.tab, tw.cfg, page)
			vec, ok, oracleErr := tw.Tuple().Extract(doc.Syms)
			got, err := tw.Extract(page)
			label := TupleLabeledPage{HTML: page}
			for j := 0; j < tw.Arity(); j++ {
				pos := 0
				if ok {
					pos = vec[j]
				}
				label.Targets = append(label.Targets, TargetIndex(pos))
			}
			outcome := tw.EvaluateTuple([]TupleLabeledPage{label}).Pages[0].Outcome
			switch {
			case oracleErr != nil:
				ambiguous++
				if !errors.Is(err, extract.ErrAmbiguous) || outcome != Miss {
					t.Errorf("wrapper %d page %d: Extract = %+v, %v; EvaluateTuple %v; oracle error %v", wi, i, got, err, outcome, oracleErr)
				}
			case !ok:
				none++
				if !errors.Is(err, ErrNotExtracted) || outcome != Miss {
					t.Errorf("wrapper %d page %d: Extract = %+v, %v; EvaluateTuple %v; oracle finds no vector", wi, i, got, err, outcome)
				}
			default:
				one++
				var want []Region
				for _, pos := range vec {
					want = append(want, regionOf(doc, pos))
				}
				if err != nil || !reflect.DeepEqual(got, want) || outcome != Hit {
					t.Errorf("wrapper %d page %d: Extract = %+v, %v; EvaluateTuple %v; oracle %+v", wi, i, got, err, outcome, want)
				}
			}
		}
	}
	if none == 0 || one == 0 || ambiguous == 0 {
		t.Errorf("oracle outcomes: %d none, %d one, %d ambiguous; the differential misses a case", none, one, ambiguous)
	}
}

// rowsPage is a parts table of n rows, one record per row under
// recordsPayload's wrapper.
func rowsPage(n int) string {
	var b strings.Builder
	b.WriteString("<h1>Parts List</h1>\n<table>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<tr><td>part %d</td><td>$%d.00</td></tr>\n", i, i)
	}
	b.WriteString("</table>")
	return b.String()
}

// oracleRecords is spanner.NaiveTuples' records on page, over the oracle's
// tokenization, in ExtractAll's shape.
func oracleRecords(tw *TupleWrapper, page string) [][]Region {
	doc := oracleMap(tw.tab, tw.cfg, page)
	out := [][]Region{}
	for _, vec := range spanner.NaiveTuples(tw.Tuple(), doc.Syms) {
		rec := make([]Region, len(vec))
		for j, pos := range vec {
			rec[j] = regionOf(doc, pos)
		}
		out = append(out, rec)
	}
	return out
}

// collectTo runs ExtractAllTo over page, copying out every borrowed record.
func collectTo(ctx context.Context, tw *TupleWrapper, page string) ([][]Region, error) {
	out := [][]Region{}
	err := tw.ExtractAllTo(ctx, []byte(page), func(rec []StreamRegion) error {
		regs := make([]Region, len(rec))
		for j, sr := range rec {
			regs[j] = Region{TokenIndex: sr.TokenIndex, Span: sr.Span, Source: string(sr.Source)}
		}
		out = append(out, regs)
		return nil
	})
	return out, err
}

// matchesOracle checks that ExtractAllTo on tw answers the oracle's records
// on each page.
func matchesOracle(t *testing.T, tw *TupleWrapper, pages ...string) {
	t.Helper()
	for i, page := range pages {
		got, err := collectTo(context.Background(), tw, page)
		if want := oracleRecords(tw, page); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("page %d: ExtractAllTo = %+v, %v; oracle %+v", i, got, err, want)
		}
	}
}

// TestExtractAllToPoolHygiene: an extraction that ends early — its deadline
// expiring mid-enumeration, a MaxStates budget failing the forward pass,
// an error from fn, a panic in fn — puts a session back that the next
// ExtractAllTo on the same wrapper reuses cleanly. Every fault strikes a
// longer page than the check that follows, so a session that kept the
// longer page's tokens would show it.
func TestExtractAllToPoolHygiene(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := rowsPage(64)
	checks := []string{recordsPage, rowsPage(1), `<p>no table</p>`, big}
	matchesOracle(t, w, checks...)

	t.Run("deadline", func(t *testing.T) {
		// Far longer than tokenizing the page and its forward pass take.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		n := 0
		err := w.ExtractAllTo(ctx, []byte(big), func([]StreamRegion) error {
			if n++; n == 2 {
				<-ctx.Done() // the deadline passes between two records
			}
			return nil
		})
		if !errors.Is(err, machine.ErrDeadline) || n != 2 {
			t.Fatalf("after %d records: %v, want a deadline error after 2", n, err)
		}
		matchesOracle(t, w, checks...)
	})
	t.Run("budget", func(t *testing.T) {
		small, err := LoadTuple(recordsPayload(t), machine.Options{MaxStates: 200})
		if err != nil {
			t.Fatal(err)
		}
		called := false
		err = small.ExtractAllTo(context.Background(), []byte(big), func([]StreamRegion) error {
			called = true
			return nil
		})
		if !errors.Is(err, machine.ErrBudget) || called {
			t.Fatalf("64-row page under a 200-node budget: %v (fn called: %v), want a budget error before any record", err, called)
		}
		matchesOracle(t, small, recordsPage, rowsPage(1))
	})
	t.Run("fn-error", func(t *testing.T) {
		stop := errors.New("stop")
		n := 0
		err := w.ExtractAllTo(context.Background(), []byte(big), func([]StreamRegion) error {
			n++
			return stop
		})
		if err != stop || n != 1 {
			t.Fatalf("after %d records: %v, want fn's own error after 1", n, err)
		}
		matchesOracle(t, w, checks...)
	})
	t.Run("fn-panic", func(t *testing.T) {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want fn's panic", r)
				}
			}()
			w.ExtractAllTo(context.Background(), []byte(big), func([]StreamRegion) error { panic("boom") })
		}()
		matchesOracle(t, w, checks...)
	})
}

// TestExtractAllToAttrKeys: a wrapper whose pivots are attribute-refined
// names runs its sessions' streamers with ParseAttrs, and answers the
// oracle's records.
func TestExtractAllToAttrKeys(t *testing.T) {
	data, err := json.Marshal(persisted{
		Version:  1,
		Kind:     kindTuple,
		Expr:     `.* <'TD[class=name]'> .* <'TD[class=price]'> .*`,
		Sigma:    []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "TD[class=name]", "TD[class=price]"},
		AttrKeys: []string{"class"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := LoadTuple(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	page := `<table>
<tr><td class="name">bolt</td><td>-</td><td class="price">$0.10</td></tr>
<tr><td>-</td><td class="name">nut</td><td class="price">$0.08</td></tr>
</table>`
	if recs := oracleRecords(w, page); len(recs) != 3 {
		t.Fatalf("oracle finds %d records, want 3 (each name before each later price)", len(recs))
	}
	matchesOracle(t, w, page, strings.ReplaceAll(page, `class="price"`, `class="cost"`), recordsPage)
}

// TestExtractAllToConcurrent: goroutines sharing one wrapper, and so its
// session pool, each answer the oracle's records on a mix of pages.
func TestExtractAllToConcurrent(t *testing.T) {
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pages := []string{recordsPage, rowsPage(40), `<p>no table</p>`, rowsPage(3), "<blink>" + recordsPage + "</blink>"}
	want := make([][][]Region, len(pages))
	for i, page := range pages {
		want[i] = oracleRecords(w, page)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := (g + i) % len(pages)
				got, err := collectTo(context.Background(), w, pages[p])
				if err != nil || !reflect.DeepEqual(got, want[p]) {
					t.Errorf("goroutine %d, page %d: %+v, %v; oracle %+v", g, p, got, err, want[p])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtractAllToAllocsWarm bounds a warm ExtractAllTo, with an observer
// in the context as on the tuples route: the page's tokens go into the
// pooled session, the DAG into the pooled arena, and each record is read
// off the vector the spanner's cursor lends, so a warm call allocates a
// constant whatever the number of records. The constant measures 6 at
// both 8 and 96 rows: the spanner's cursor, and five for its spanner.run
// phase (the phase, its span, the span's context and two attributes).
func TestExtractAllToAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled sessions and arenas")
	}
	const perRun = 6
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.NewContext(context.Background(), obs.New())
	for _, rows := range []int{8, 96} {
		page := []byte(rowsPage(rows))
		n := 0
		count := func([]StreamRegion) error { n++; return nil }
		for i := 0; i < 4; i++ { // warm the pools and the counters
			if err := w.ExtractAllTo(ctx, page, count); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			n = 0
			if err := w.ExtractAllTo(ctx, page, count); err != nil {
				t.Fatal(err)
			}
		})
		if n != rows {
			t.Fatalf("%d rows: %d records", rows, n)
		}
		if allocs > perRun {
			t.Errorf("%d rows: warm ExtractAllTo allocates %.0f times, want at most %d", rows, allocs, perRun)
		}
	}
}
