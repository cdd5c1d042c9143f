package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the comparator reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts, per (metric, workload) pair.
const (
	improved   = "improved"
	noWorse    = "no worse"
	regressed  = "regressed"
	unresolved = "unresolved"
	noBound    = "-" // per-layer metrics carry no bound
)

// verdict judges change runs against parent runs of one metric. Runs are
// paired by position (run i of each side). A gain needs the change to win
// at least nine in ten pairs (ties count for neither) and the medians to
// differ by more than the parent's interquartile range. A loss beyond the
// bound is a regression — unless either side's run-to-run spread exceeds
// the bound, in which case the pair is unresolved, unless every change run
// beats every parent run. bound < 0 means the metric has no bound.
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return unresolved
	}
	better := betterFunc(higherBetter)
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	n := min(len(parent), len(change))
	wins := pairWins(parent, change, higherBetter)
	gap := cmed - pmed
	if gap < 0 {
		gap = -gap
	}
	gain := wins*10 >= 9*n && gap > pq3-pq1 && better(cmed, pmed)
	if bound < 0 {
		if gain {
			return improved
		}
		return noBound
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := (cmed - pmed) / pmed
	if higherBetter {
		worse = -worse
	}
	spread := max((pq3-pq1)/pmed, (cq3-cq1)/cmed)
	switch {
	case gain:
		return improved
	case allBetter:
		return noWorse
	case spread > bound:
		return unresolved
	case worse > bound:
		return regressed
	default:
		return noWorse
	}
}

// betterFunc reports whether a is better than b for a metric of the given
// direction.
func betterFunc(higherBetter bool) func(a, b float64) bool {
	if higherBetter {
		return func(a, b float64) bool { return a > b }
	}
	return func(a, b float64) bool { return a < b }
}

// pairWins counts the pairs (run i of each side) the change wins.
func pairWins(parent, change []float64, higherBetter bool) int {
	better := betterFunc(higherBetter)
	wins := 0
	for i := 0; i < min(len(parent), len(change)); i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	return wins
}

// compareMain is `benchmark compare [-spec BENCHMARK.json] <parent
// results…> -- <change results…>`: one row per (workload, metric) with each
// side's median and quartiles and the verdict against the metric's bound,
// plus a failed_frac row per workload. It exits 1 when any end-to-end pair
// regressed or the change failed more operations.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json with the bounds (default: the repository's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(rest)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] <parent results…> -- <change results…>")
		return 2
	}
	if *specPath == "" {
		root, err := repoRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		*specPath = filepath.Join(root, "BENCHMARK.json")
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	parent, err1 := loadResults(rest[:sep])
	change, err2 := loadResults(rest[sep+1:])
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	bad := compareTable(w, sp, parent, change)
	if bad {
		return 1
	}
	return 0
}

func loadResults(paths []string) ([]*runResult, error) {
	var out []*runResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// compareTable writes the comparison and reports whether any bounded pair
// regressed.
func compareTable(w io.Writer, sp *spec, parent, change []*runResult) (bad bool) {
	byWorkload := func(rs []*runResult) map[string][]*runResult {
		m := map[string][]*runResult{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for n := range pw {
		if cw[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tbound\twins\tverdict")
	for _, name := range names {
		p, c := pw[name], cw[name]
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			pv, cv := values(p, m.Name), values(c, m.Name)
			if len(pv) == 0 && len(cv) == 0 {
				continue
			}
			bound := -1.0
			boundText := "-"
			if m.Bound != nil {
				bound = *m.Bound
				boundText = fmt.Sprintf("%.1f%%", 100*bound)
			}
			v := verdict(pv, cv, m.Better == "higher", bound)
			if v == regressed {
				bad = true
			}
			pq1, pmed, pq3 := quartiles(pv)
			cq1, cmed, cq3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\t%d/%d\t%s\n",
				name, m.Name, pmed, pq1, pq3, cmed, cq1, cq3, 100*frac(cmed-pmed, pmed), boundText,
				pairWins(pv, cv, m.Better == "higher"), min(len(pv), len(cv)), v)
		}
		pf, cf := failedFrac(p), failedFrac(c)
		v := noWorse
		if cf > pf {
			v, bad = regressed, true
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.4g\t%.4g\t\t0\t\t%s\n", name, pf, cf, v)
	}
	tw.Flush()
	return bad
}

func values(rs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFrac(rs []*runResult) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return frac(float64(failed), float64(attempted))
}
