package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCorruptedBatchResponseFailsOracle(t *testing.T) {
	w, err := generate("batch-small", 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var o *op
	var hit, miss int
	for _, r := range w.reads {
		want := r.want.([]answerJSON)
		hit, miss = -1, -1
		for i, a := range want {
			if a.OK && hit < 0 {
				hit = i
			}
			if !a.OK && miss < 0 {
				miss = i
			}
		}
		if hit >= 0 && miss >= 0 {
			o = r
			break
		}
	}
	if o == nil {
		t.Fatal("no read mixes hits and misses")
	}
	want := o.want.([]answerJSON)
	good := mustJSON(t, batchJSON{Results: want})
	if err := checkRead(o, http.StatusOK, good); err != nil {
		t.Fatalf("the oracle's own answer fails its check: %v", err)
	}
	corrupt := map[string]func([]answerJSON){
		"moved region":   func(a []answerJSON) { a[hit].TokenIndex++ },
		"wrong source":   func(a []answerJSON) { a[hit].Source += "x" },
		"hit as miss":    func(a []answerJSON) { a[hit] = answerJSON{Index: hit, Key: a[hit].Key, Error: a[miss].Error} },
		"miss as hit":    func(a []answerJSON) { a[miss].OK, a[miss].Error = true, "" },
		"other error":    func(a []answerJSON) { a[miss].Error = "deadline exceeded" },
		"dropped result": nil,
	}
	for name, f := range corrupt {
		bad := append([]answerJSON(nil), want...)
		if f == nil {
			bad = bad[:len(bad)-1]
		} else {
			f(bad)
		}
		if err := checkRead(o, http.StatusOK, mustJSON(t, batchJSON{Results: bad})); err == nil {
			t.Errorf("%s: corrupted response passed the oracle check", name)
		}
	}
	if err := checkRead(o, http.StatusInternalServerError, good); err == nil {
		t.Error("a 500 passed the oracle check")
	}
	if err := checkRead(o, http.StatusOK, good[:len(good)/2]); err == nil {
		t.Error("a truncated body passed the oracle check")
	}
}

func TestCorruptedRecordsResponseFailsOracle(t *testing.T) {
	sh := tupleShapes[1]
	reg := registration{key: "rec", payload: tuplePayload(tupleSource(sh, 3), sh.sigma, nil)}
	d := doc{key: "rec", html: recordTable(rand.New(rand.NewSource(1)), sh, 3, 5)}
	want := newOracle(nil, []registration{reg}).tuples(d)
	if want.Count != 5 || want.Arity != 3 {
		t.Fatalf("oracle found %d records of arity %d in a 5-row 3-column table", want.Count, want.Arity)
	}
	o := pageOp(routeTuples, 0, d, want)
	if err := checkRead(o, http.StatusOK, mustJSON(t, want)); err != nil {
		t.Fatalf("the oracle's own answer fails its check: %v", err)
	}
	bad := want
	bad.Records = append([][]slotJSON(nil), want.Records[:4]...)
	if err := checkRead(o, http.StatusOK, mustJSON(t, bad)); err == nil {
		t.Error("a response missing a record passed the oracle check")
	}
	bad = want
	bad.Records = append([][]slotJSON(nil), want.Records...)
	bad.Records[2] = append([]slotJSON(nil), want.Records[2]...)
	bad.Records[2][1].Start++
	if err := checkRead(o, http.StatusOK, mustJSON(t, bad)); err == nil {
		t.Error("a response with a shifted slot passed the oracle check")
	}
}

func TestWriteCheck(t *testing.T) {
	o := putOp("churn-3", []byte(`{}`))
	for _, tc := range []struct {
		status   int
		body     string
		registry bool
		ok       bool
	}{
		{http.StatusCreated, `{"key":"churn-3","version":7,"persisted":true}`, true, true},
		{http.StatusCreated, `{"key":"churn-3","version":7}`, false, true},
		{http.StatusCreated, `{"key":"churn-3","version":7,"persisted":false}`, true, false},
		{http.StatusCreated, `{"key":"churn-3","version":0,"persisted":true}`, true, false},
		{http.StatusCreated, `{"key":"churn-4","version":7,"persisted":true}`, true, false},
		{http.StatusBadRequest, `{"error":"x"}`, true, false},
	} {
		v, err := checkWrite(o, tc.status, []byte(tc.body), tc.registry)
		if (err == nil) != tc.ok {
			t.Errorf("%d %s (registry %v): err = %v, want ok = %v", tc.status, tc.body, tc.registry, err, tc.ok)
		}
		if err == nil && v != 7 {
			t.Errorf("%s: version %d, want 7", tc.body, v)
		}
	}
}

func TestVersionTallyCatchesDuplicates(t *testing.T) {
	w := &workload{baseVersion: map[string]uint64{"churn-0": 3}}
	write := putOp("churn-0", nil)
	run := func(versions ...uint64) int {
		h := &httpRun{w: w, windows: make([]window, 1)}
		for _, v := range versions {
			h.windows[0].open = append(h.windows[0].open, result{op: write, version: v})
		}
		h.tally()
		return h.failed
	}
	if n := run(5, 4, 6); n != 0 {
		t.Errorf("consecutive versions after the base counted %d failures", n)
	}
	if n := run(4, 4, 5); n == 0 {
		t.Error("a duplicated version was not counted as a failure")
	}
	if n := run(3, 4); n == 0 {
		t.Error("a version at the base was not counted as a failure")
	}
}

func TestFirstMarkOnly(t *testing.T) {
	got := firstMarkOnly(tupleSource(tupleShapes[0], 3))
	if want := ".* <TD> /TD TD /TD TD .*"; got != want {
		t.Errorf("firstMarkOnly = %q, want %q", got, want)
	}
	if !strings.Contains(firstMarkOnly("[^ H1 ]* H1 <INPUT> .*"), "<INPUT>") {
		t.Error("a single-pivot expression lost its mark")
	}
}
