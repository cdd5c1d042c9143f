package extract

import (
	"fmt"
	"strings"

	"resilex/internal/symtab"
)

// Diagnosis is a structured health report for an extraction expression —
// everything the theory can say about it in one pass. Produce with
// Expr.Explain; render with Diagnosis.Format.
type Diagnosis struct {
	// Unambiguous per Definition 4.2.
	Unambiguous bool
	// AmbiguityWitness is a string with ≥ 2 valid extraction positions (set
	// only when ambiguous).
	AmbiguityWitness []symtab.Symbol
	// WitnessPositions are the valid positions on the witness.
	WitnessPositions []int
	// Maximal per Definition 4.5 (meaningful only when Unambiguous).
	Maximal bool
	// Defect is a string that could be adjoined on DefectSide while staying
	// unambiguous (set only when unambiguous but not maximal).
	Defect     []symtab.Symbol
	DefectSide string
	// BoundedMarks reports whether the prefix matches a bounded number of
	// marked symbols (the Algorithm 6.2 applicability condition); Bound is
	// the maximum when bounded.
	BoundedMarks bool
	Bound        int
}

// Explain runs the full battery of decision procedures on the expression.
// Budget errors from the automata layer abort with an error rather than a
// partial report.
func (e Expr) Explain() (Diagnosis, error) {
	var d Diagnosis
	unamb, err := e.Unambiguous()
	if err != nil {
		return Diagnosis{}, err
	}
	d.Unambiguous = unamb
	if !unamb {
		w, ok, err := e.AmbiguityWitness()
		if err != nil {
			return Diagnosis{}, err
		}
		if ok {
			d.AmbiguityWitness = w
			d.WitnessPositions = e.Splits(w)
		}
	} else {
		m, err := e.Maximal()
		if err != nil {
			return Diagnosis{}, err
		}
		d.Maximal = m
		if !m {
			rho, side, ok, err := e.MaximalityDefect()
			if err != nil {
				return Diagnosis{}, err
			}
			if ok {
				d.Defect = rho
				d.DefectSide = side
			}
		}
	}
	d.Bound, d.BoundedMarks = e.left.MaxOccurrences(e.p)
	return d, nil
}

// Format renders the diagnosis as a short human-readable report.
func (d Diagnosis) Format(tab *symtab.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unambiguous: %v\n", d.Unambiguous)
	if !d.Unambiguous {
		if d.AmbiguityWitness != nil {
			fmt.Fprintf(&b, "  witness: %s (positions %v)\n",
				tab.String(d.AmbiguityWitness), d.WitnessPositions)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "maximal:     %v\n", d.Maximal)
	if !d.Maximal && d.DefectSide != "" {
		fmt.Fprintf(&b, "  defect: %q can be adjoined on the %s side\n",
			tab.String(d.Defect), d.DefectSide)
	}
	if d.BoundedMarks {
		fmt.Fprintf(&b, "marked-symbol bound in prefix: %d (Algorithm 6.2 applies)\n", d.Bound)
	} else {
		b.WriteString("prefix matches unboundedly many marked symbols (pivot framework required)\n")
	}
	return b.String()
}
