package wrapper

import (
	"errors"
	"fmt"
	"strings"
)

// LabeledPage is a page with its expected extraction, for wrapper scoring.
type LabeledPage struct {
	HTML   string
	Target Target
}

// Outcome classifies one page's evaluation result.
type Outcome int

// Evaluation outcomes.
const (
	Hit      Outcome = iota // extracted exactly the labeled element
	Miss                    // expression did not parse the page
	Wrong                   // parsed, but extracted a different element
	BadLabel                // the label itself could not be resolved
)

// String names the outcome for logs and reports.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Wrong:
		return "wrong"
	case BadLabel:
		return "bad-label"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// PageResult is the evaluation of one labeled page.
type PageResult struct {
	Outcome Outcome
	Got     Region // valid when Outcome is Hit or Wrong
	Want    int    // labeled token index; -1 when BadLabel
	Detail  string
}

// Report aggregates an evaluation run.
type Report struct {
	Pages []PageResult
}

// Hits counts exact extractions.
func (r Report) Hits() int { return r.count(Hit) }

// Misses counts unparsed pages.
func (r Report) Misses() int { return r.count(Miss) }

// Wrongs counts mis-extractions — the dangerous failure mode: the robot
// believes it found the element but grabbed the wrong one.
func (r Report) Wrongs() int { return r.count(Wrong) }

func (r Report) count(o Outcome) int {
	n := 0
	for _, p := range r.Pages {
		if p.Outcome == o {
			n++
		}
	}
	return n
}

// Rate returns the hit fraction over resolvable labels, in [0,1]; 0 when no
// label resolved.
func (r Report) Rate() float64 {
	valid := 0
	for _, p := range r.Pages {
		if p.Outcome != BadLabel {
			valid++
		}
	}
	if valid == 0 {
		return 0
	}
	return float64(r.Hits()) / float64(valid)
}

// String renders a one-line summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d pages: %d hit, %d miss, %d wrong", len(r.Pages), r.Hits(), r.Misses(), r.Wrongs())
	if bad := r.count(BadLabel); bad > 0 {
		fmt.Fprintf(&b, ", %d bad-label", bad)
	}
	fmt.Fprintf(&b, " (%.1f%%)", 100*r.Rate())
	return b.String()
}

// TupleLabeledPage is a page with its expected slot extractions.
type TupleLabeledPage struct {
	HTML    string
	Targets []Target // one per slot, in order
}

// EvaluateTuple scores a tuple wrapper against labeled pages: a Hit
// requires every slot to land on its labeled element.
func (w *TupleWrapper) EvaluateTuple(pages []TupleLabeledPage) Report {
	var rep Report
	mapper, tab := w.cfg.privateMapper(w.tab)
	for _, pg := range pages {
		doc := mapper.Map(pg.HTML)
		if len(pg.Targets) != w.Arity() {
			rep.Pages = append(rep.Pages, PageResult{Outcome: BadLabel, Want: -1,
				Detail: fmt.Sprintf("label has %d targets, wrapper extracts %d", len(pg.Targets), w.Arity())})
			continue
		}
		want := make([]int, len(pg.Targets))
		bad := false
		for j, tg := range pg.Targets {
			idx, err := resolveTarget(doc, Sample{HTML: pg.HTML, Target: tg}, tab)
			if err != nil {
				rep.Pages = append(rep.Pages, PageResult{Outcome: BadLabel, Want: -1, Detail: err.Error()})
				bad = true
				break
			}
			want[j] = idx
		}
		if bad {
			continue
		}
		vector, err := w.unique(doc.Syms)
		if err != nil {
			detail := err.Error()
			if errors.Is(err, ErrNotExtracted) {
				detail = "expression does not parse the page"
			}
			rep.Pages = append(rep.Pages, PageResult{Outcome: Miss, Want: want[0], Detail: detail})
			continue
		}
		allMatch := true
		for j := range vector {
			if vector[j] != want[j] {
				allMatch = false
				break
			}
		}
		got := Region{TokenIndex: vector[0], Span: doc.SpanOf(vector[0]), Source: doc.Source(vector[0])}
		if allMatch {
			rep.Pages = append(rep.Pages, PageResult{Outcome: Hit, Want: want[0], Got: got})
		} else {
			rep.Pages = append(rep.Pages, PageResult{Outcome: Wrong, Want: want[0], Got: got,
				Detail: fmt.Sprintf("extracted %v, labeled %v", vector, want)})
		}
	}
	return rep
}

// Evaluate scores the wrapper against labeled pages. It never returns an
// error: label-resolution failures are reported per page as BadLabel.
func (w *Wrapper) Evaluate(pages []LabeledPage) Report {
	var rep Report
	mapper, tab := w.cfg.privateMapper(w.tab)
	for _, pg := range pages {
		doc := mapper.Map(pg.HTML)
		want, err := resolveTarget(doc, Sample{HTML: pg.HTML, Target: pg.Target}, tab)
		if err != nil {
			rep.Pages = append(rep.Pages, PageResult{Outcome: BadLabel, Want: -1, Detail: err.Error()})
			continue
		}
		pos, ok := w.matcher.Find(doc.Syms)
		switch {
		case !ok:
			rep.Pages = append(rep.Pages, PageResult{Outcome: Miss, Want: want, Detail: "expression does not parse the page"})
		case pos == want:
			rep.Pages = append(rep.Pages, PageResult{
				Outcome: Hit, Want: want,
				Got: Region{TokenIndex: pos, Span: doc.SpanOf(pos), Source: doc.Source(pos)},
			})
		default:
			rep.Pages = append(rep.Pages, PageResult{
				Outcome: Wrong, Want: want,
				Got:    Region{TokenIndex: pos, Span: doc.SpanOf(pos), Source: doc.Source(pos)},
				Detail: fmt.Sprintf("extracted token %d, labeled %d", pos, want),
			})
		}
	}
	return rep
}
