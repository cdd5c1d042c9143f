package wrapper

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"resilex/internal/machine"
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
	// Each wrapper resolves against its own Σ, though the refresh widened
	// the table they share: the refreshed one finds the record, the
	// original still finds none.
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
