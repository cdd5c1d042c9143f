package resilex_test

import (
	"testing"

	"resilex"
)

func TestFacadeTuple(t *testing.T) {
	tab := resilex.NewTable()
	tags, err := resilex.ParseTokens("P FORM /FORM INPUT", tab)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := resilex.ParseTuple("[^ FORM]* FORM [^ INPUT]* <INPUT> [^ INPUT]* <INPUT> .*",
		tab, resilex.NewAlphabet(tags...), resilex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	unamb, err := tp.Unambiguous()
	if err != nil || !unamb {
		t.Fatalf("unambiguous = %v, %v", unamb, err)
	}
	doc, err := resilex.ParseTokens("P FORM INPUT INPUT INPUT /FORM", tab)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := tp.Extract(doc)
	if err != nil || !ok {
		t.Fatalf("extract: %v %v", ok, err)
	}
	if v[0] != 2 || v[1] != 3 {
		t.Errorf("vector = %v, want [2 3]", v)
	}
	maxed, err := resilex.MaximizeTuple(tp)
	if err != nil {
		t.Fatal(err)
	}
	if v2, ok, err := maxed.Extract(doc); err != nil || !ok || v2[0] != v[0] || v2[1] != v[1] {
		t.Errorf("maximized vector = %v (%v, %v)", v2, ok, err)
	}
}

func TestFacadeDisambiguate(t *testing.T) {
	tab := resilex.NewTable()
	x, err := resilex.ParseExpr("p* <p> p*", tab, resilex.Alphabet{}, resilex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := resilex.ParseTokens("p p", tab)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := resilex.Disambiguate(x, [][]resilex.Symbol{w}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if unamb, _ := fixed.Unambiguous(); !unamb {
		t.Error("still ambiguous")
	}
}

func TestFacadeSimplify(t *testing.T) {
	tab := resilex.NewTable()
	n, err := resilex.ParseRegex("p p* | #eps", tab, resilex.Alphabet{})
	if err != nil {
		t.Fatal(err)
	}
	s := resilex.SimplifyRegex(n)
	if s.Size() >= n.Size() {
		t.Errorf("no simplification: %d -> %d nodes", n.Size(), s.Size())
	}
}

func TestFacadeMaximizationAlgorithms(t *testing.T) {
	tab := resilex.NewTable()
	sigma3src, _ := resilex.ParseTokens("p q r", tab)
	sigma := resilex.NewAlphabet(sigma3src...)

	// LeftFilter on the Example 4.7 input.
	x, err := resilex.ParseExpr("q p <p> .*", tab, sigma, resilex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := resilex.LeftFilter(x)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := lf.Maximal(); !m {
		t.Error("LeftFilter output not maximal")
	}
	// RightFilter on the mirror case.
	y, err := resilex.ParseExpr("(p | p p) <p> q", tab, sigma, resilex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := resilex.RightFilter(y)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := rf.Maximal(); !m {
		t.Error("RightFilter output not maximal")
	}
	// Pivot + decomposition inspection.
	z, err := resilex.ParseExpr("(p q)* r q <p> .*", tab, sigma, resilex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := resilex.PivotDecomposition(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Pivots) == 0 {
		t.Error("no pivots discovered")
	}
	pv, err := resilex.Pivot(z)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := pv.Maximal(); !m {
		t.Error("Pivot output not maximal")
	}
	// Compose two maximal pieces.
	a, _ := resilex.ParseExpr("[^ q]* <q> .*", tab, sigma, resilex.Options{})
	b, _ := resilex.ParseExpr("[^ p]* <p> .*", tab, sigma, resilex.Options{})
	c, err := resilex.Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := c.Maximal(); !m {
		t.Error("Compose output not maximal")
	}
	// The facade-compiled one-pass matcher agrees with the two-scan one.
	mtr, err := lf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := lf.CompileStream()
	if err != nil {
		t.Fatalf("maximized expression should stream: %v", err)
	}
	p, q := sigma3src[0], sigma3src[1]
	word := []resilex.Symbol{q, p, p, q}
	wantPos, wantOK := mtr.Find(word)
	if pos, ok := sm.Find(word); !wantOK || pos != wantPos || ok != wantOK {
		t.Errorf("stream Find = %d,%v; two-scan %d,%v", pos, ok, wantPos, wantOK)
	}
}

func TestFacadeTuplePersistence(t *testing.T) {
	w, err := resilex.TrainTuple([]resilex.Sample{
		{HTML: `<table><tr><td data-target>a</td><td data-target>b</td></tr></table>`},
	}, resilex.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !resilex.IsTuplePayload(data) {
		t.Error("tuple payload not detected")
	}
	w2, err := resilex.LoadTupleWrapper(data, resilex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Arity() != 2 {
		t.Errorf("arity after reload = %d", w2.Arity())
	}
}

// DTD-guided training: the declared vocabulary becomes Σ, so redesigns
// using not-yet-seen elements stay parseable (§8's DTD suggestion).
func TestFacadeDTDGuidedTraining(t *testing.T) {
	dtd, err := resilex.ParseDTD(`
<!ELEMENT page (header, nav?, form)>
<!ELEMENT header (h1 | img)+>
<!ELEMENT nav (a*)>
<!ELEMENT form (input+)>
<!ELEMENT input EMPTY>
<!ELEMENT img EMPTY>
<!ELEMENT h1 (#PCDATA)>
<!ELEMENT a (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	// Two samples with different headers, so the merge anchors on the
	// FORM/INPUT structure rather than header specifics.
	w, err := resilex.Train([]resilex.Sample{
		{HTML: `<page><header><h1>Shop</h1></header><form><input><input data-target></form></page>`,
			Target: resilex.TargetMarker()},
		{HTML: `<page><header><img></header><form><input><input data-target></form></page>`,
			Target: resilex.TargetMarker()},
	}, resilex.Config{ExtraTags: dtd.Vocabulary()})
	if err != nil {
		t.Fatal(err)
	}
	// The redesign introduces NAV and A — declared in the DTD but absent
	// from both training samples. Without the DTD vocabulary these tags
	// would fall outside Σ and make the page unparseable by construction.
	novel := `<page><header><img></header><nav><a>deals</a></nav>` +
		`<form><input><input></form></page>`
	r, err := w.Extract(novel)
	if err != nil {
		t.Fatalf("DTD-covered redesign unparseable: %v", err)
	}
	if r.TokenIndex == 0 {
		t.Error("suspicious extraction at token 0")
	}
}
