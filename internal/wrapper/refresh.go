package wrapper

import (
	"context"
	"errors"
	"fmt"

	"resilex/internal/extract"
	"resilex/internal/lang"
	"resilex/internal/learn"
	"resilex/internal/symtab"
)

// Refresh widens a trained wrapper with one more marked sample — the
// maintenance loop of a deployed robot: when a redesigned page stops
// matching, an operator marks the target once and the wrapper learns the
// new layout family without being rebuilt by hand.
//
// Wrappers created by Train/TrainTokens remember their training examples,
// so Refresh re-runs the induce→maximize pipeline over the extended example
// set: all training pages keep extracting at their marked positions and the
// new layout generalizes like any other. Wrappers restored with Load have
// no provenance; for them Refresh falls back to a rigid widening — the new
// page's exact prefix/suffix languages are unioned into the components (a
// ⪯ step, so every previously parsed page keeps extracting identically) —
// which handles the sampled page but not its whole family. ErrAmbiguous is
// returned when the new sample genuinely conflicts (same context, different
// target).
func (w *Wrapper) Refresh(sample Sample) (*Wrapper, error) {
	return w.RefreshContext(context.Background(), sample)
}

// RefreshContext is Refresh with the whole induce→maximize→compile pipeline
// bounded by ctx (in addition to the wrapper's state budget): the
// re-induction and every automaton construction poll the deadline, so a
// refresh against a pathological page returns an error wrapping
// machine.ErrDeadline instead of running the PSPACE-hard path to completion.
// The receiver is left untouched and usable, on success as on error: the
// sample is tokenized into a clone of its symbol table, which wrappers
// loaded from one cached artifact share, and the refreshed wrapper owns
// that clone.
func (w *Wrapper) RefreshContext(ctx context.Context, sample Sample) (*Wrapper, error) {
	if ctx != context.Background() {
		bounded := w.WithOptions(w.cfg.Options.WithContext(ctx))
		fresh, err := bounded.refresh(sample)
		if err != nil {
			return nil, err
		}
		// Do not let the (possibly expired) context outlive the call.
		fresh.cfg.Options = w.cfg.Options
		return fresh, nil
	}
	return w.refresh(sample)
}

func (w *Wrapper) refresh(sample Sample) (*Wrapper, error) {
	mapper, tab := w.cfg.privateMapper(w.tab)
	doc := mapper.Map(sample.HTML)
	idx, err := resolveTarget(doc, sample, tab)
	if err != nil {
		return nil, err
	}
	if doc.Syms[idx] != w.expr.P() {
		return nil, fmt.Errorf("wrapper: new sample marks %s, wrapper extracts %s",
			tab.Name(doc.Syms[idx]), tab.Name(w.expr.P()))
	}
	if w.examples != nil {
		// Re-induction path.
		examples := append(append([]learn.Example(nil), w.examples...),
			learn.Example{Doc: doc.Syms, Target: idx})
		sigma := w.sigma.Union(doc.Alphabet())
		fresh, err := trainExamples(tab, examples, sigma, w.cfg)
		switch {
		case err == nil:
			fresh.strategy += "+refreshed"
			return fresh, nil
		case errors.Is(err, learn.ErrAmbiguousExamples):
			// The new sample contradicts the old ones for every induction
			// strategy; fall through to rigid widening, which detects the
			// genuinely ambiguous case precisely.
		default:
			return nil, err
		}
	}
	sigma := w.expr.Sigma().Union(doc.Alphabet())
	opt := w.cfg.Options
	prefix, err := lang.Single(doc.Syms[:idx], sigma, opt)
	if err != nil {
		return nil, err
	}
	suffix, err := lang.Single(doc.Syms[idx+1:], sigma, opt)
	if err != nil {
		return nil, err
	}
	left, err := w.expr.Left().Union(prefix)
	if err != nil {
		return nil, err
	}
	right, err := w.expr.Right().Union(suffix)
	if err != nil {
		return nil, err
	}
	widened := extract.New(left, w.expr.P(), right)
	unamb, err := widened.Unambiguous()
	if err != nil {
		return nil, err
	}
	if !unamb {
		return nil, fmt.Errorf("%w: the new sample conflicts with the wrapper", extract.ErrAmbiguous)
	}
	expr := widened
	strategy := w.strategy + "+refreshed"
	if maxed, err := extract.Maximize(widened); err == nil {
		expr = maxed
		strategy = w.strategy + "+refreshed-maximized"
	} else if !errors.Is(err, extract.ErrNotApplicable) && !errors.Is(err, extract.ErrUnbounded) {
		return nil, err
	}
	m, err := expr.Compile()
	if err != nil {
		return nil, err
	}
	return newWrapper(tab, expr, m, strategy, w.cfg, nil, symtab.Alphabet{})
}
