package wrapper

import (
	"slices"
	"strings"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
)

func TestEvaluate(t *testing.T) {
	w, err := Train([]Sample{
		{HTML: fig1Top, Target: TargetMarker()},
		{HTML: fig1Bottom, Target: TargetMarker()},
	}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Evaluate([]LabeledPage{
		{HTML: fig1Top, Target: TargetMarker()},             // hit
		{HTML: fig1Bottom, Target: TargetMarker()},          // hit
		{HTML: fig1Novel, Target: TargetTag("INPUT", 1)},    // hit (2nd input)
		{HTML: `<p>nothing</p>`, Target: TargetTag("P", 0)}, // miss
		{HTML: fig1Top, Target: TargetTag("INPUT", 0)},      // wrong: labeled 1st input
		{HTML: `<p></p>`, Target: TargetMarker()},           // bad label
	})
	if rep.Hits() != 3 || rep.Misses() != 1 || rep.Wrongs() != 1 {
		t.Fatalf("report = %s", rep)
	}
	if got := rep.Rate(); got < 0.59 || got > 0.61 {
		t.Errorf("rate = %v, want 3/5", got)
	}
	s := rep.String()
	for _, want := range []string{"3 hit", "1 miss", "1 wrong", "1 bad-label"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	// Outcomes carry diagnostics.
	for _, p := range rep.Pages {
		if p.Outcome == Wrong && !strings.Contains(p.Detail, "labeled") {
			t.Errorf("wrong outcome lacks detail: %+v", p)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	names := map[Outcome]string{Hit: "hit", Miss: "miss", Wrong: "wrong", BadLabel: "bad-label", Outcome(9): "outcome(9)"}
	for o, want := range names {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d) = %q", int(o), got)
		}
	}
}

func TestEvaluateEmptyReport(t *testing.T) {
	w, err := Train([]Sample{{HTML: fig1Top, Target: TargetMarker()}}, fig1Config())
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Evaluate(nil)
	if rep.Rate() != 0 || len(rep.Pages) != 0 {
		t.Errorf("empty evaluation: %s", rep)
	}
}

func TestEvaluateTuple(t *testing.T) {
	w, err := TrainTuple([]Sample{
		{HTML: tupleSample1},
		{HTML: tupleSample2},
	}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := w.EvaluateTuple([]TupleLabeledPage{
		{HTML: tupleLive, Targets: []Target{TargetTag("TD", 0), TargetTag("TD", 1)}}, // hit
		{HTML: tupleLive, Targets: []Target{TargetTag("TD", 1), TargetTag("TD", 0)}}, // wrong
		{HTML: `<p>x</p>`, Targets: []Target{TargetTag("P", 0), TargetTag("P", 0)}},  // miss
		{HTML: tupleLive, Targets: []Target{TargetTag("TD", 0)}},                     // bad arity
	})
	if rep.Hits() != 1 || rep.Wrongs() != 1 || rep.Misses() != 1 {
		t.Fatalf("report = %s (%+v)", rep, rep.Pages)
	}
}

// TestEvaluateLeavesTableAlone: scoring a page full of tags outside Σ must
// not grow the wrapper's live symbol table — for a trained wrapper, nor for
// one loaded through a TieredCache, whose table every wrapper restored from
// the same artifact shares — and a label on such a tag still resolves, so
// the page scores Miss (counted by Rate), not BadLabel.
func TestEvaluateLeavesTableAlone(t *testing.T) {
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
	cached, err := LoadCached(payload, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*Wrapper{"trained": trained, "cached": cached} {
		before := w.Table().Names()
		rep := w.Evaluate([]LabeledPage{{HTML: `<blink>sale</blink>`, Target: TargetTag("BLINK", 0)}})
		if rep.Misses() != 1 || rep.Rate() != 0 {
			t.Errorf("%s: report = %s (%+v), want one miss", name, rep, rep.Pages)
		}
		if after := w.Table().Names(); !slices.Equal(after, before) {
			t.Errorf("%s: Evaluate grew the table from %v to %v", name, before, after)
		}
	}

	trainedTuple, err := TrainTuple([]Sample{{HTML: tupleSample1}, {HTML: tupleSample2}}, Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	payload, err = trainedTuple.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cachedTuple, err := LoadTupleCached(payload, machine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*TupleWrapper{"trained": trainedTuple, "cached": cachedTuple} {
		before := w.tab.Names()
		rep := w.EvaluateTuple([]TupleLabeledPage{{
			HTML:    `<blink>bolt</blink><marquee>$1</marquee>`,
			Targets: []Target{TargetTag("BLINK", 0), TargetTag("MARQUEE", 0)},
		}})
		if rep.Misses() != 1 || rep.Rate() != 0 {
			t.Errorf("tuple %s: report = %s (%+v), want one miss", name, rep, rep.Pages)
		}
		if after := w.tab.Names(); !slices.Equal(after, before) {
			t.Errorf("tuple %s: EvaluateTuple grew the table from %v to %v", name, before, after)
		}
	}
}
