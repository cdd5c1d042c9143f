package obs

import (
	"context"
	"strings"
	"testing"
)

func TestSpanParentChild(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartSpan(context.Background(), "root")
	cctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(cctx, "grand")
	grand.SetAttr("states", 7)
	grand.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: grand, child, root.
	if spans[0].Name != "grand" || spans[1].Name != "child" || spans[2].Name != "root" {
		t.Fatalf("completion order wrong: %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[2].Parent != 0 {
		t.Errorf("root parent = %d, want 0", spans[2].Parent)
	}
	if spans[1].Parent != spans[2].ID {
		t.Errorf("child parent = %d, want %d", spans[1].Parent, spans[2].ID)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("grand parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Attr{"states", 7}) {
		t.Errorf("grand attrs = %v", spans[0].Attrs)
	}

	var b strings.Builder
	if err := tr.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	tree := b.String()
	for _, want := range []string{"root ", "\n  child ", "\n    grand ", " states=7\n"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanAttrOverwrite(t *testing.T) {
	tr := NewTracer(4)
	_, sp := tr.StartSpan(context.Background(), "s")
	sp.SetAttr("k", 1)
	sp.SetAttr("k", 2)
	sp.End()
	got := tr.Snapshot()[0].Attrs
	if len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("attrs = %v, want single k=2", got)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		_, sp := tr.StartSpan(context.Background(), string(rune('a'+i)))
		sp.End()
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("buffered = %d, want 3", len(spans))
	}
	// Oldest two ("a", "b") evicted.
	if spans[0].Name != "c" || spans[1].Name != "d" || spans[2].Name != "e" {
		t.Fatalf("ring contents wrong: %s %s %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

// Evicted-parent spans must still render (as roots) rather than vanish.
func TestWriteTreeEvictedParent(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.End()
	root.End() // evicts child

	var b strings.Builder
	if err := tr.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "root ") {
		t.Fatalf("evicted-parent render wrong:\n%s", b.String())
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(8)
	_, sp := tr.StartSpan(context.Background(), "s")
	sp.End()
	sp.End()
	if tr.Total() != 1 {
		t.Fatalf("double End recorded %d spans", tr.Total())
	}
}

func TestPhase(t *testing.T) {
	o := New()
	ctx := NewContext(context.Background(), o)
	pctx, p := StartPhase(ctx, "machine.determinize")
	p.Attr("states", 3)
	p.Count("machine_subset_states_total", 3)
	_, inner := StartPhase(pctx, "machine.minimize")
	inner.End()
	p.End()

	snap := o.Metrics.Snapshot()
	if snap.Counters["machine_subset_states_total"] != 3 {
		t.Fatalf("phase counter missing: %v", snap.Counters)
	}
	if snap.Histograms["machine_determinize_duration_us"].Count != 1 {
		t.Fatalf("phase duration histogram missing: %v", snap.Histograms)
	}
	if snap.Histograms["machine_minimize_duration_us"].Count != 1 {
		t.Fatalf("nested phase duration histogram missing: %v", snap.Histograms)
	}
	spans := o.Trace.Snapshot()
	if len(spans) != 2 || spans[0].Name != "machine.minimize" || spans[0].Parent != spans[1].ID {
		t.Fatalf("phase span nesting wrong: %+v", spans)
	}
	// No observer in ctx → inert phase, ctx unchanged.
	bg := context.Background()
	c2, p2 := StartPhase(bg, "x")
	if c2 != bg || p2 != nil {
		t.Fatalf("phase without observer should be inert")
	}
}

// TestPhaseMetricNameBuiltOnce: a warm phase builds its histogram's name
// once per registry, not per call, so with no tracer a StartPhase and End
// pair allocates only the phase itself, and the durations still land in
// the "<dots as underscores>_duration_us" histogram.
func TestPhaseMetricNameBuiltOnce(t *testing.T) {
	o := &Observer{Metrics: NewRegistry()}
	ctx := NewContext(context.Background(), o)
	run := func() {
		_, p := StartPhase(ctx, "spanner.run")
		p.End()
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 1 {
		t.Fatalf("warm StartPhase+End allocated %.1f times, want 1 (the phase)", allocs)
	}
	if n := o.Metrics.Snapshot().Histograms["spanner_run_duration_us"].Count; n != 102 {
		t.Fatalf("spanner_run_duration_us observed %d phases, want 102", n)
	}
}

func TestFromContext(t *testing.T) {
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Fatal("FromContext on bare contexts should be nil")
	}
	o := New()
	if FromContext(NewContext(nil, o)) != o {
		t.Fatal("FromContext lost the observer")
	}
}

func TestWriteSnapshotJSON(t *testing.T) {
	o := New()
	o.Counter("a_total").Inc()
	_, sp := o.StartSpan(context.Background(), "phase")
	sp.SetAttr("n", 2)
	sp.End()
	var b strings.Builder
	if err := WriteSnapshotJSON(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"metrics"`, `"a_total": 1`, `"spans"`, `"name": "phase"`, `"n": 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot JSON missing %q:\n%s", want, out)
		}
	}
	// Nil observer still produces a valid document.
	b.Reset()
	if err := WriteSnapshotJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
}
