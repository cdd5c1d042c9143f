package wrapper

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
)

// A radically different future layout the original wrapper cannot parse.
const fig1Future = `<div class="search"><span>find parts</span>
<form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
</form></div>`

func TestRefreshLearnsNewLayout(t *testing.T) {
	w, err := Train([]Sample{
		{HTML: fig1Top, Target: TargetMarker()},
		{HTML: fig1Bottom, Target: TargetMarker()},
	}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	// The future page breaks the wrapper (no H1 anchor, SPAN/DIV tags).
	if _, err := w.Extract(fig1Future); !errors.Is(err, ErrNotExtracted) {
		t.Fatalf("future page unexpectedly parsed: %v", err)
	}
	stream := func(w *Wrapper) (Region, error) {
		t.Helper()
		se, err := w.Stream()
		if err != nil {
			t.Fatal(err)
		}
		return se.ExtractReader(context.Background(), strings.NewReader(fig1Future))
	}
	if _, err := stream(w); !errors.Is(err, ErrNotExtracted) {
		t.Fatalf("future page streamed through the original wrapper: %v", err)
	}
	// One marked sample refreshes it.
	w2, err := w.Refresh(Sample{HTML: fig1Future, Target: TargetMarker()})
	if err != nil {
		t.Fatal(err)
	}
	// Each wrapper resolves against its own Σ: the refreshed one streams the
	// page, the original still rejects it.
	want, err := w2.Extract(fig1Future)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := stream(w2); err != nil || got != want {
		t.Fatalf("refreshed wrapper streamed %+v, %v; Extract %+v", got, err, want)
	}
	if _, err := stream(w); !errors.Is(err, ErrNotExtracted) {
		t.Fatalf("original wrapper streamed the future page after the refresh: %v", err)
	}
	if !strings.Contains(w2.Strategy(), "refreshed") {
		t.Errorf("strategy = %q", w2.Strategy())
	}
	r, err := w2.Extract(fig1Future)
	if err != nil || !strings.Contains(r.Source, `type="text"`) {
		t.Fatalf("refreshed wrapper on future page: %q, %v", r.Source, err)
	}
	// Monotonicity (⪯): the original pages still extract identically.
	for i, page := range []string{fig1Top, fig1Bottom, fig1Novel} {
		r1, err1 := w.Extract(page)
		r2, err2 := w2.Extract(page)
		if err1 == nil && (err2 != nil || r1.Span != r2.Span) {
			t.Errorf("page %d regressed after refresh: %v/%v vs %v/%v", i, r1, err1, r2, err2)
		}
	}
}

func TestRefreshErrors(t *testing.T) {
	w, err := Train([]Sample{{HTML: fig1Top, Target: TargetMarker()}}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	// Unresolvable target.
	if _, err := w.Refresh(Sample{HTML: `<p></p>`, Target: TargetMarker()}); !errors.Is(err, ErrNoTarget) {
		t.Errorf("err = %v", err)
	}
	// Mark symbol mismatch: wrapper extracts INPUT, sample marks P.
	if _, err := w.Refresh(Sample{HTML: `<p data-target></p>`, Target: TargetMarker()}); err == nil {
		t.Error("mismatched mark accepted")
	}
	// A genuinely conflicting sample: identical context, different target.
	// The original marks the 2nd input; refresh with the SAME page but the
	// 1st input marked must fail as ambiguous.
	conflict := strings.Replace(
		strings.Replace(fig1Top, ` name="value" data-target`, ` name="value"`, 1),
		`type="image" align="left" src="search.gif"`,
		`type="image" align="left" src="search.gif" data-target`, 1)
	if _, err := w.Refresh(Sample{HTML: conflict, Target: TargetMarker()}); !errors.Is(err, extract.ErrAmbiguous) {
		t.Errorf("conflicting sample: err = %v, want ErrAmbiguous", err)
	}
}

// TestRefreshBudgetExhaustion starves a refresh with a tiny state budget:
// the refresh must fail with a typed budget error — never panic — and the
// original wrapper must keep serving untouched.
func TestRefreshBudgetExhaustion(t *testing.T) {
	w, err := Train([]Sample{
		{HTML: fig1Top, Target: TargetMarker()},
		{HTML: fig1Bottom, Target: TargetMarker()},
	}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	starved := w.WithOptions(machine.Options{MaxStates: 2})
	_, err = starved.Refresh(Sample{HTML: fig1Future, Target: TargetMarker()})
	if !errors.Is(err, machine.ErrBudget) {
		t.Fatalf("starved refresh: err = %v, want ErrBudget", err)
	}
	// Both the original and the starved copy still extract (the compiled
	// matcher is shared and was never invalidated).
	for name, wr := range map[string]*Wrapper{"original": w, "starved": starved} {
		if r, err := wr.Extract(fig1Top); err != nil || !strings.Contains(r.Source, `type="text"`) {
			t.Errorf("%s wrapper damaged: %q, %v", name, r.Source, err)
		}
	}
}

// TestRefreshLeavesTableAlone: wrappers loaded from one payload through a
// TieredCache share the cached artifact's symbol table. Refreshing one of
// them with a page of unseen tags must intern those tags into a copy, so
// the other wrapper and the artifact keep their table, and the artifact
// still passes EncodeArtifact's re-derivation check.
func TestRefreshLeavesTableAlone(t *testing.T) {
	cache := extract.NewTieredCache(extract.NewCache(4, nil), nil)
	trained, err := Train([]Sample{
		{HTML: fig1Top, Target: TargetMarker()},
		{HTML: fig1Bottom, Target: TargetMarker()},
	}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := trained.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := LoadCached(payload, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	other, err := LoadCached(payload, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	before := other.Table().Names()
	drifted := `<blink>sale</blink><marquee>` + fig1Future + `</marquee>`
	fresh, err := refreshed.Refresh(Sample{HTML: drifted, Target: TargetMarker()})
	if err != nil {
		t.Fatal(err)
	}
	if after := other.Table().Names(); !slices.Equal(after, before) {
		t.Errorf("Refresh grew the shared table from %v to %v", before, after)
	}
	p, err := decodePersisted(payload, "")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cache.Load(p.Expr, p.Sigma, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := extract.EncodeArtifact(comp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extract.DecodeArtifact(blob, machine.Options{}); err != nil {
		t.Errorf("cached artifact no longer round-trips after Refresh: %v", err)
	}
	if r, err := fresh.Extract(drifted); err != nil || !strings.Contains(r.Source, `type="text"`) {
		t.Errorf("refreshed wrapper on the drifted page: %q, %v", r.Source, err)
	}

	tw, err := TrainTuple([]Sample{{HTML: tupleSample1}}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	before = tw.tab.Names()
	if _, err := tw.Refresh(Sample{HTML: tupleSample2}); err != nil {
		t.Fatal(err)
	}
	if after := tw.tab.Names(); !slices.Equal(after, before) {
		t.Errorf("tuple Refresh grew the table from %v to %v", before, after)
	}
}
