package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"resilex/internal/extract"
	"resilex/internal/symtab"
)

// e17Case is one persisted wrapper in the E17 sweep: an expression, its
// alphabet, and a document length for the first request.
type e17Case struct {
	name   string
	src    string
	names  []string
	docLen int
}

// e17Cases mixes the realistic with the adversarial: the Figure 1 shopbot
// wrapper shape, and the subset-construction witness family
// (p|q)* p (p|q)^(n-1) whose minimal DFA has 2^n states — the expressions
// where cold compilation actually hurts and a persisted artifact pays off.
func e17Cases() []e17Case {
	html := []string{
		"P", "H1", "/H1", "FORM", "/FORM", "INPUT", "BR",
		"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "TH", "/TH", "IMG", "A", "/A",
	}
	cases := []e17Case{
		{"fig1 wrapper", "[^ FORM]* FORM [^ INPUT]* INPUT [^ INPUT]* <INPUT> .*", html, 200},
	}
	for _, n := range []int{8, 10, 12, 14} {
		// The whole witness sits in the left context, so its component DFA
		// is the full 2^n-state machine; the mark itself is cheap.
		src := "(p | q)* p"
		for i := 1; i < n; i++ {
			src += " (p | q)"
		}
		src += " <p> .*"
		cases = append(cases, e17Case{fmt.Sprintf("witness n=%d", n), src, []string{"p", "q"}, 200})
	}
	return cases
}

// E17Persistence measures first-request per-document latency for a wrapper
// the process has never served before, under the three states a serving
// process can be in:
//
//	cold       no cache anywhere: parse, determinize, minimize, build the
//	           matcher, then extract — what every restart used to cost
//	warm-disk  a fresh process over a populated -cache-dir: decode the
//	           persisted artifact (re-parse + re-minimize, no subset
//	           construction), then extract
//	warm-mem   the artifact already resident in the memory tier: a map hit,
//	           then extract
//
// Each latency is the median of trials runs; speedups are per row against
// the cold column of the same row, and the final row is the geometric mean
// across expressions. Decode skips exactly the exponential phase, so the
// disk tier's margin over recompiling grows with the subset construction a
// wrapper needs. A disk hit parses the source twice, for the lookup's key
// and in the decode (a blob holding the source the lookup keyed needs no
// re-key check), so on a small wrapper it still costs about what a cold
// compile does.
func E17Persistence(dir string, trials int, seed int64) Table {
	t := Table{
		ID:     "E17",
		Title:  "persistent artifact store: cold compile vs warm-disk vs warm-memory first request",
		Claim:  "runtime extension: decoding a persisted artifact skips subset construction, so the warm-disk gain over a cold compile grows with the construction a wrapper needs; on a small wrapper a disk hit, which parses the source twice, costs about a cold compile",
		Header: []string{"expression", "cold µs", "warm-disk µs", "warm-mem µs", "disk speedup ×", "mem speedup ×"},
	}
	if trials < 1 {
		trials = 1
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "resilex-e17-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	rng := rand.New(rand.NewSource(seed))
	diskGeo, memGeo := 0.0, 0.0
	for _, c := range e17Cases() {
		// One shared document per case so every mode answers the identical
		// first request.
		cold, err := extract.CompileArtifact(c.src, c.names, DefaultOptions)
		if err != nil {
			panic(err)
		}
		syms := cold.Expr.Sigma().Symbols()
		doc := make([]symtab.Symbol, c.docLen)
		for i := range doc {
			doc[i] = syms[rng.Intn(len(syms))]
		}
		key, err := extract.Key(c.src, c.names)
		if err != nil {
			panic(err)
		}
		disk, err := extract.NewDiskCache(filepath.Join(dir, "e17-"+key[:16]), -1, DefaultObserver)
		if err != nil {
			panic(err)
		}
		if err := disk.Put(key, cold); err != nil {
			panic(err)
		}

		coldDur := medianOf(trials, func() {
			c2, err := extract.CompileArtifact(c.src, c.names, DefaultOptions)
			if err != nil {
				panic(err)
			}
			c2.Matcher.All(doc)
		})
		diskDur := medianOf(trials, func() {
			// A restart: fresh memory tier over the surviving directory.
			tc := extract.NewTieredCache(extract.NewCache(4, DefaultObserver), disk)
			c2, err := tc.Load(c.src, c.names, DefaultOptions)
			if err != nil {
				panic(err)
			}
			c2.Matcher.All(doc)
		})
		warm := extract.NewTieredCache(extract.NewCache(4, DefaultObserver), disk)
		if _, err := warm.Load(c.src, c.names, DefaultOptions); err != nil {
			panic(err)
		}
		memDur := medianOf(trials, func() {
			c2, err := warm.Load(c.src, c.names, DefaultOptions)
			if err != nil {
				panic(err)
			}
			c2.Matcher.All(doc)
		})

		diskX := float64(coldDur) / float64(max(diskDur, time.Microsecond))
		memX := float64(coldDur) / float64(max(memDur, time.Microsecond))
		diskGeo += math.Log(diskX)
		memGeo += math.Log(memX)
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprint(coldDur.Microseconds()),
			fmt.Sprint(diskDur.Microseconds()),
			fmt.Sprint(memDur.Microseconds()),
			fmt.Sprintf("%.1f", diskX),
			fmt.Sprintf("%.1f", memX),
		})
	}
	n := float64(len(t.Rows))
	t.Rows = append(t.Rows, []string{
		"geomean", "-", "-", "-",
		fmt.Sprintf("%.1f", math.Exp(diskGeo/n)),
		fmt.Sprintf("%.1f", math.Exp(memGeo/n)),
	})
	return t
}

// medianOf runs f trials times and returns the median duration — robust to
// one-off scheduler or GC interference without hiding steady-state cost.
func medianOf(trials int, f func()) time.Duration {
	durs := make([]time.Duration, trials)
	for i := range durs {
		s := time.Now()
		f()
		durs[i] = time.Since(s)
	}
	return pctile(durs, 0.5)
}
