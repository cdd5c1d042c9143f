package extract

import (
	"errors"
	"strings"
	"testing"
)

func TestMaximalCatalog(t *testing.T) {
	e := newTenv()
	cases := []struct {
		src     string
		maximal bool
	}{
		// Example 4.6: (Σ−p)*⟨p⟩Σ* is maximal.
		{"[^ p]* <p> .*", true},
		// Example 4.6: (qp)*·((Σ−p)*−q)⟨p⟩Σ* is maximal.
		{"(q p)* ([^ p]* - q) <p> .*", true},
		// Example 4.7: qp⟨p⟩Σ* is unambiguous but NOT maximal.
		{"q p <p> .*", false},
		// Example 4.7's first maximization: (Σ−p)*·p·(Σ−p)*⟨p⟩Σ*.
		{"[^ p]* p [^ p]* <p> .*", true},
		// Small non-maximal expressions.
		{"q <p> q", false},
		{"<p>", false},
		{"p <p> p p p", false},
		// Mirror-image maximal form.
		{".* <p> [^ p]*", true},
	}
	for _, c := range cases {
		x := e.expr(t, c.src, e.sigma2)
		got, err := x.Maximal()
		if err != nil {
			t.Fatalf("Maximal(%q): %v", c.src, err)
		}
		if got != c.maximal {
			t.Errorf("Maximal(%q) = %v, want %v", c.src, got, c.maximal)
		}
	}
}

// Proposition 5.11: (Σ−p)*⟨p⟩E is maximal iff L(E) = Σ*.
func TestProposition511(t *testing.T) {
	e := newTenv()
	cases := []struct {
		right string
		want  bool
	}{
		{".*", true},
		{"q*", false},
		{"(p | q)*", true}, // equals Σ* over {p,q}
		{"#eps", false},
		{"(q .* | #eps | p .*)", true}, // Σ* in disguise: ε | pΣ* | qΣ*
	}
	for _, c := range cases {
		x := e.expr(t, "[^ p]* <p> "+c.right, e.sigma2)
		unamb, err := x.Unambiguous()
		if err != nil || !unamb {
			t.Fatalf("Lemma 5.10 violated: (Σ−p)*⟨p⟩%s not unambiguous (%v)", c.right, err)
		}
		got, err := x.Maximal()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Maximal((Σ−p)*⟨p⟩%s) = %v, want %v", c.right, got, c.want)
		}
	}
}

func TestMaximalRequiresUnambiguous(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "p* <p> p*", e.sigma2)
	if _, err := x.Maximal(); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("Maximal on ambiguous expression: err = %v, want ErrAmbiguous", err)
	}
	if _, _, _, err := x.MaximalityDefect(); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("MaximalityDefect on ambiguous expression: err = %v", err)
	}
}

// The defect/extend loop realizes the proof of Proposition 5.7: each defect
// ρ yields a strictly larger unambiguous expression.
func TestDefectExtendLoop(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "q p <p> .*", e.sigma2)
	for step := 0; step < 6; step++ {
		rho, side, ok, err := x.MaximalityDefect()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			// Reached a maximal point.
			m, err := x.Maximal()
			if err != nil || !m {
				t.Fatalf("no defect but not maximal (%v, %v)", m, err)
			}
			return
		}
		y, err := x.Extend(rho, side)
		if err != nil {
			t.Fatal(err)
		}
		// Strictly generalizes and stays unambiguous (Proposition 5.7 proof).
		if g, _ := y.Generalizes(x); !g {
			t.Fatal("extension does not generalize")
		}
		if g, _ := x.Generalizes(y); g {
			t.Fatal("extension not strict")
		}
		unamb, err := y.Unambiguous()
		if err != nil || !unamb {
			t.Fatalf("extension ambiguous (%v, %v)", unamb, err)
		}
		x = y
	}
	// Six steps without reaching maximality is fine — the chain can be
	// infinite (Example 4.7) — but every step must have been sound, which
	// the assertions above verified.
}

func TestDefectOnMaximal(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "[^ p]* <p> .*", e.sigma2)
	_, _, ok, err := x.MaximalityDefect()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("maximal expression reported a defect")
	}
}

// Maximality of an expression over a singleton alphabet {p}: ⟨p⟩ cannot be
// maximal (pp⟨p⟩... ambiguity constraints), but (ε)⟨p⟩p* … exercise edge
// alphabet handling: Σ = {p}.
func TestSingletonAlphabet(t *testing.T) {
	e := newTenv()
	sigma := e.sigma2.Without(e.q)
	x := e.expr(t, "<p> p*", sigma)
	unamb, err := x.Unambiguous()
	if err != nil {
		t.Fatal(err)
	}
	if !unamb {
		t.Fatal("⟨p⟩p* over {p} should be unambiguous (only the first p can match)")
	}
	m, err := x.Maximal()
	if err != nil {
		t.Fatal(err)
	}
	if !m {
		t.Error("⟨p⟩p* over {p} should be maximal: (Σ−p)* = {ε}")
	}
}

func TestExplain(t *testing.T) {
	e := newTenv()
	// Ambiguous expression: witness reported.
	d, err := e.expr(t, "p* <p> p*", e.sigma2).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if d.Unambiguous || d.AmbiguityWitness == nil || len(d.WitnessPositions) < 2 {
		t.Errorf("ambiguous diagnosis = %+v", d)
	}
	if s := d.Format(e.tab); !strings.Contains(s, "witness") {
		t.Errorf("format missing witness: %s", s)
	}
	// Unambiguous, not maximal: defect reported, bounded.
	d, err = e.expr(t, "q p <p> .*", e.sigma2).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Unambiguous || d.Maximal || d.DefectSide == "" || !d.BoundedMarks || d.Bound != 1 {
		t.Errorf("diagnosis = %+v", d)
	}
	// Maximal with unbounded prefix marks... (Σ−p)* has bound 0; use the
	// pivot family for unboundedness.
	d, err = e.expr(t, "(p q)* r q <p> .*", e.sigma3).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if d.BoundedMarks {
		t.Error("pivot-family prefix should be unbounded")
	}
	if s := d.Format(e.tab); !strings.Contains(s, "pivot framework") {
		t.Errorf("format missing pivot hint: %s", s)
	}
	// Maximal expression: clean bill.
	d, err = e.expr(t, "[^ p]* <p> .*", e.sigma2).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Maximal {
		t.Errorf("maximal diagnosis = %+v", d)
	}
}
