// Command extract runs a trained wrapper (see wrapgen) over HTML pages and
// prints the extracted element of each.
//
// Usage:
//
//	extract -w wrapper.json [-timeout 1s] [-max-states N] [-metrics] page1.html ...
//
// For every page the tool prints the byte span and source text of the
// extracted element, or an error when the wrapper does not parse the page.
// A tuple wrapper prints one line per slot of the first record; with
// -records it enumerates every record on the page in document order (the
// one-pass k-ary spanner path).
// -timeout bounds wrapper loading and each extraction with a deadline;
// -max-states (alias -budget) caps automaton construction. With -metrics the
// tool records every construction phase (subset states, minimization passes,
// deadline polls, per-phase wall time) and dumps the metric snapshot on exit
// as JSON (or Prometheus text with -metrics-format prometheus); -trace dumps
// the span tree of the run. The exit status is the number of pages that
// failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"resilex"
)

func main() {
	os.Exit(run())
}

func run() int {
	wpath := flag.String("w", "wrapper.json", "wrapper JSON produced by wrapgen")
	budget := flag.Int("budget", 0, "state budget for automaton constructions (0 = default)")
	maxStates := flag.Int("max-states", 0, "alias of -budget: state budget for automaton constructions")
	timeout := flag.Duration("timeout", 0, "deadline per page: loading and each extraction abandon with a deadline error when exceeded (0 = none)")
	quiet := flag.Bool("q", false, "print only the extracted source text")
	records := flag.Bool("records", false, "with a tuple wrapper: enumerate every record on the page (one-pass k-ary spanner) instead of only the first")
	metrics := flag.Bool("metrics", false, "record construction/extraction metrics and dump a snapshot on exit")
	metricsFormat := flag.String("metrics-format", "json", "snapshot format: json (metrics + spans) or prometheus (text exposition)")
	metricsOut := flag.String("metrics-out", "", "write the metric snapshot to this file instead of stderr")
	trace := flag.Bool("trace", false, "dump the span tree of the run to stderr on exit")
	flag.Parse()
	pages := flag.Args()
	if len(pages) == 0 {
		fmt.Fprintln(os.Stderr, "usage: extract -w wrapper.json [-timeout 1s] [-max-states N] [-metrics] page.html ...")
		return 2
	}
	if *maxStates > 0 {
		*budget = *maxStates
	}
	data, err := os.ReadFile(*wpath)
	if err != nil {
		return fatal(err)
	}
	// base carries the observer (when requested) into every construction and
	// extraction context derived below.
	base := context.Background()
	var obs *resilex.Observer
	if *metrics || *trace {
		obs = resilex.NewObserver()
		base = resilex.WithObserver(base, obs)
	}
	defer func() {
		if err := resilex.DumpObserver(obs, *metrics, *trace, *metricsFormat, *metricsOut); err != nil {
			fatal(err)
		}
	}()
	opt := resilex.Options{MaxStates: *budget}
	// bound returns a context honoring -timeout, for loading and per page.
	bound := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(base, *timeout)
		}
		return base, func() {}
	}
	{
		ctx, cancel := bound()
		opt = opt.WithContext(ctx)
		defer cancel()
	}
	// Dispatch on payload kind: single-slot or tuple wrapper.
	var runPage func(html string) ([]resilex.Region, error)
	if resilex.IsTuplePayload(data) {
		w, err := resilex.LoadTupleWrapper(data, opt)
		if err != nil {
			return fatal(err)
		}
		if *records {
			runPage = func(html string) ([]resilex.Region, error) {
				ctx, cancel := bound()
				defer cancel()
				recs, err := resilex.ExtractRecordsWithin(ctx, w, html)
				if err != nil {
					return nil, err
				}
				var out []resilex.Region
				for _, rec := range recs {
					out = append(out, rec...)
				}
				return out, nil
			}
		} else {
			runPage = func(html string) ([]resilex.Region, error) {
				ctx, cancel := bound()
				defer cancel()
				if err := (resilex.Options{Ctx: ctx}).Err(); err != nil {
					return nil, err
				}
				return w.Extract(html)
			}
		}
	} else {
		if *records {
			return fatal(fmt.Errorf("-records needs a tuple wrapper; %s is single-pivot", *wpath))
		}
		w, err := resilex.LoadWrapper(data, opt)
		if err != nil {
			return fatal(err)
		}
		runPage = func(html string) ([]resilex.Region, error) {
			ctx, cancel := bound()
			defer cancel()
			r, err := resilex.ExtractWithin(ctx, w, html)
			if err != nil {
				return nil, err
			}
			return []resilex.Region{r}, nil
		}
	}
	failures := 0
	for _, page := range pages {
		html, err := os.ReadFile(page)
		if err != nil {
			fmt.Fprintf(os.Stderr, "extract: %s: %v\n", page, err)
			failures++
			continue
		}
		regions, err := runPage(string(html))
		if err != nil {
			fmt.Fprintf(os.Stderr, "extract: %s: %v\n", page, err)
			failures++
			continue
		}
		for _, r := range regions {
			if *quiet {
				fmt.Println(r.Source)
			} else {
				fmt.Printf("%s: token %d, bytes [%d,%d): %s\n",
					page, r.TokenIndex, r.Span.Start, r.Span.End, r.Source)
			}
		}
	}
	return failures
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "extract:", err)
	return 1
}
