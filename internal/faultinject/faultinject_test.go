package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"resilex/internal/machine"
	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// Training layouts for a small shop site, plus a redesigned page that uses
// tags outside the training alphabet — guaranteed to break the wrapper and
// guaranteed to be refreshable (the drift carries the training marker).
const (
	shopA = `<h1>Shop</h1><form><input type="image"><input type="text" data-target></form>`
	shopB = `<div><h1>Shop</h1><p>deal!</p><form><input type="image"><input type="text" data-target></form></div>`
	drift = `<table><tr><td><form><input type="image"><input type="text" data-target></form></td></tr></table>`
)

func trainShop(t *testing.T) *wrapper.Wrapper {
	t.Helper()
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: shopA, Target: wrapper.TargetMarker()},
		{HTML: shopB, Target: wrapper.TargetMarker()},
	}, wrapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestInjectors pins down the injectors' deterministic behavior.
func TestInjectors(t *testing.T) {
	if got := Truncate(shopA, 0.5); len(got) != len(shopA)/2 {
		t.Errorf("Truncate length = %d", len(got))
	}
	if Truncate(shopA, 0) != "" || Truncate(shopA, 1) != shopA {
		t.Error("Truncate bounds wrong")
	}
	cut := TruncateAtTag(shopA, 2)
	if !strings.HasSuffix(cut, `<h1>Shop</h1>`) {
		t.Errorf("TruncateAtTag = %q", cut)
	}
	if g := GarbleTags(shopA, 1); strings.Contains(g, ">") {
		t.Errorf("GarbleTags(1) kept a '>': %q", g)
	}
	if Shuffle(shopA, 7, 8) != Shuffle(shopA, 7, 8) {
		t.Error("Shuffle not deterministic")
	}
	if Shuffle(shopA, 7, 8) == shopA {
		t.Error("Shuffle(seed 7) left the page intact")
	}
	if s := StripMarker(drift); strings.Contains(s, "data-target") {
		t.Errorf("StripMarker left marker: %q", s)
	}
	if TinyBudget(3).MaxStates != 3 {
		t.Error("TinyBudget")
	}
	if err := ExpiredContext().Err(); err == nil {
		t.Error("ExpiredContext not expired")
	}
}

// TestBrokenPagesInServeBatch sends the server one POST /extract batch of a
// clean page and two wrecks of it: every tag garbled, and a redesign with its
// marker stripped and its tail cut off. The batch answers 200; each wreck is
// a per-document miss carrying the wrapper's no-match error (a broken page is
// no match, not malformed input), and the clean page gets the region a
// wrapper loaded outside the server extracts.
func TestBrokenPagesInServeBatch(t *testing.T) {
	s, err := serve.New(serve.Config{CacheCap: 8, RestoreLog: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	shop, err := trainShop(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutWrapper(context.Background(), "shop", shop); err != nil {
		t.Fatal(err)
	}
	oracle, err := wrapper.Load(shop, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Extract(shopB)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(map[string][]wrapper.BatchDoc{"docs": {
		{Key: "shop", HTML: shopB},
		{Key: "shop", HTML: GarbleTags(shopB, 1)},
		{Key: "shop", HTML: Truncate(StripMarker(drift), 0.6)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			OK    bool   `json:"ok"`
			Error string `json:"error"`
			regionAnswer
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 3 {
		t.Fatalf("response %s: %v", rec.Body, err)
	}
	clean := resp.Results[0]
	if !clean.OK || clean.regionAnswer != (regionAnswer{want.TokenIndex, want.Span.Start, want.Span.End, want.Source}) {
		t.Errorf("clean page: %+v, oracle %+v", clean, want)
	}
	for i, r := range resp.Results[1:] {
		if r.OK || r.Error != wrapper.ErrNoMatch.Error() {
			t.Errorf("wreck %d: ok %v, error %q; want ok:false with %q", i+1, r.OK, r.Error, wrapper.ErrNoMatch)
		}
	}
}

// TestExpiredContextFailsFast injects an already-expired context into
// extraction and refresh: each must return an error wrapping
// machine.ErrDeadline well within 100ms — no construction work.
func TestExpiredContextFailsFast(t *testing.T) {
	w := trainShop(t)
	ctx := ExpiredContext()

	start := time.Now()
	if _, err := w.ExtractContext(ctx, shopB); !errors.Is(err, machine.ErrDeadline) {
		t.Errorf("extract: err = %v", err)
	}
	if _, err := w.RefreshContext(ctx, wrapper.Sample{HTML: drift, Target: wrapper.TargetMarker()}); !errors.Is(err, machine.ErrDeadline) {
		t.Errorf("refresh: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("expired-context calls took %v, want < 100ms", elapsed)
	}
}

// TestTinyBudgetSurfacesTyped starves a refresh with a few-state budget: it
// must fail with an error wrapping machine.ErrBudget, never panic, and leave
// the serving wrapper intact.
func TestTinyBudgetSurfacesTyped(t *testing.T) {
	w := trainShop(t)
	starved := w.WithOptions(TinyBudget(2))
	if _, err := starved.Refresh(wrapper.Sample{HTML: drift, Target: wrapper.TargetMarker()}); !errors.Is(err, machine.ErrBudget) {
		t.Fatalf("starved refresh: err = %v, want ErrBudget", err)
	}
	// The serving wrapper survived the starved refresh.
	if _, err := w.Extract(shopB); err != nil {
		t.Errorf("serving wrapper damaged: %v", err)
	}
}

// TestInjectedPagesNeverPanic sweeps every injector over the training pages
// and runs extraction and training on the wreckage: errors are fine, panics
// are not (none of these paths may crash a robot).
func TestInjectedPagesNeverPanic(t *testing.T) {
	w := trainShop(t)
	pages := []string{shopA, shopB, drift}
	var broken []string
	for _, p := range pages {
		broken = append(broken,
			Truncate(p, 0.3), Truncate(p, 0.7),
			TruncateAtTag(p, 1), TruncateAtTag(p, 3),
			GarbleTags(p, 1), GarbleTags(p, 2),
			Shuffle(p, 1, 4), Shuffle(p, 2, 16),
			StripMarker(p),
		)
	}
	for i, p := range broken {
		if _, err := w.Extract(p); err != nil {
			_ = err // typed failure is the contract; crash is the bug
		}
		if _, err := wrapper.Train([]wrapper.Sample{{HTML: p, Target: wrapper.TargetMarker()}}, wrapper.Config{}); err != nil {
			_ = err
		}
		_ = i
	}
}
