// Package resilex is a resilient data-extraction library for semistructured
// sources, implementing the theory of Davulcu, Yang, Kifer and Ramakrishnan,
// "Computational Aspects of Resilient Data Extraction from Semistructured
// Sources" (PODS 2000).
//
// # The model
//
// A web page is abstracted as a string of tokens over a finite alphabet Σ —
// HTML tag symbols such as FORM, INPUT, /FORM. An extraction expression
// E1⟨p⟩E2 is a regular expression with one marked occurrence of a symbol p:
// it extracts the occurrence of p in a page ρ = α·p·β with α ∈ L(E1) and
// β ∈ L(E2). Expressions must be unambiguous — every page admits at most one
// such split — and the more pages an unambiguous expression parses, the more
// resilient it is to page redesigns. Resilience is formalized by a partial
// order (E1⟨p⟩E2 ⪯ F1⟨p⟩F2 iff L(E1) ⊆ L(F1) and L(E2) ⊆ L(F2)), and the
// library synthesizes maximal elements of that order: expressions that
// cannot be generalized any further without becoming ambiguous.
//
// # What the library provides
//
//   - Parsing and compiling extraction expressions over token alphabets
//     (ParseExpr), with decision procedures for unambiguity (polynomial,
//     two independent algorithms) and maximality (PSPACE-complete in
//     general, budgeted here).
//   - The maximization algorithms of the paper: left-filtering maximization
//     (Algorithm 6.2, LeftFilter), its mirror image (RightFilter), and the
//     pivot framework (Pivot); Maximize dispatches among them.
//   - An HTML front end: Train induces a wrapper from sample pages with a
//     marked target (learning-stage merge heuristic + maximization) and
//     Extract maps results back to byte regions of the live page.
//   - Healing when a redesign outruns a maximized expression: Wrapper.Refresh
//     (RefreshWithin) re-induces from one more marked sample (Section 7;
//     examples/maintenance), and Fleet.Add swaps the result in for the site.
//     The server heals the same way off the request path — drift watch,
//     re-induction, canary, then a metric-gated promote or rollback. Both
//     are bounded by deadlines and state budgets.
//
// # Error taxonomy
//
// Every error returned by the facade wraps exactly one typed sentinel, so
// callers branch with errors.Is and never parse messages:
//
//   - ErrNoMatch (= ErrNotExtracted): the wrapper's expression does not
//     parse the page — the page-drift signal that drives refresh.
//   - ErrAmbiguous: an expression or new sample admits two extractions.
//   - ErrBudgetExceeded (= ErrBudget): an automaton construction hit its
//     MaxStates budget (the PSPACE-hard paths are budgeted, not hidden).
//   - ErrDeadlineExceeded: the context bounding a construction or
//     extraction expired; work is abandoned promptly at the next poll.
//   - ErrMalformedInput: corrupt persisted wrapper/fleet JSON. A
//     truncated, garbled or empty page is not malformed input: it is
//     ErrNoMatch.
//   - ErrUnknownKey: a fleet dispatch failure — no wrapper for the site.
//   - ErrInternal: a recovered invariant failure; the facade's recover()
//     backstop guarantees internal panics surface as this error instead of
//     crashing the caller.
//
// # Quick start
//
//	w, err := resilex.Train([]resilex.Sample{
//	    {HTML: page1, Target: resilex.TargetMarker()},
//	    {HTML: page2, Target: resilex.TargetMarker()},
//	}, resilex.Config{})
//	if err != nil { ... }
//	region, err := w.Extract(livePage)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's formal claims.
package resilex
