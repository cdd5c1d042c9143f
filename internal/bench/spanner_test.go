package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
)

// recordsSigma and recordsSrc mirror the serving benchmark's "linked"
// tuples-records shape: a heading and a paragraph above a table whose
// header row is TH cells and whose record cells each hold one link.
var recordsSigma = []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "TH", "/TH", "A", "/A", "H1", "/H1", "P", "/P"}

func recordsSrc(k int) string {
	return ".* <TD>" + strings.Repeat(" A /A /TD <TD>", k-1) + " .*"
}

func recordsPage(rows, cols int) string {
	var b strings.Builder
	b.WriteString("<h1>Catalogue</h1>\n<p>intro</p>\n<table>\n<tr>")
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&b, "<th>column %d</th>", c)
	}
	b.WriteString("</tr>\n")
	for r := 0; r < rows; r++ {
		b.WriteString("<tr>")
		for c := 0; c < cols; c++ {
			fmt.Fprintf(&b, `<td><a href="/p/%d">item %d.%d</a></td>`, r, r, c)
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>")
	return b.String()
}

// TestRunAllocsWarm bounds a warm Run plus All on E22's 64-row pages: the
// DAG lives in a pooled arena, so the allocations are the vectors handed
// out, the result slice's growth and the cursor.
func TestRunAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled arenas")
	}
	const rows = 64
	for _, k := range []int{2, 3, 4} {
		comp, err := extract.CompileTupleArtifact(e22Src(k), e22Sigma, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := spanner.Compile(comp.Tuple, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		word := htmltok.NewMapper(comp.Tab).Map(e22Page(rows, k)).Syms
		var vecs int
		allocs := testing.AllocsPerRun(50, func() {
			m, err := prog.Run(word)
			if err != nil {
				t.Fatal(err)
			}
			all, err := m.All()
			if err != nil {
				t.Fatal(err)
			}
			vecs = len(all)
		})
		if vecs != rows {
			t.Fatalf("k=%d: %d vectors, want %d", k, vecs, rows)
		}
		if allocs > float64(vecs+16) {
			t.Errorf("k=%d: warm Run+All allocates %.0f times, want at most %d (vectors + 16)", k, allocs, vecs+16)
		}
	}
}

// BenchmarkSpannerRun times one warm Run plus All — the forward pass, the
// backward prune and the enumeration — on E22's k=3 64-row page and on
// 48-row tables shaped like the serving benchmark's tuples-records pages,
// for k = 2, 3 and 4. Their rows repeat, so the program's row memo is warm
// after one run. The witness rows run E17's n = 12 witness as a 1-ary tuple
// over 20,000 random p/q symbols, whose rows mostly do not repeat: "cold"
// times a freshly compiled program's first run (the compile untimed),
// "warm" a later one. Every row reports the live DAG nodes per token.
func BenchmarkSpannerRun(b *testing.B) {
	type benchCase struct {
		name  string
		src   string
		sigma []string
		// input returns the word and its number of extraction vectors.
		input func(*extract.CompiledTuple) ([]symtab.Symbol, int)
		cold  bool
	}
	page := func(html string, rows int) func(*extract.CompiledTuple) ([]symtab.Symbol, int) {
		return func(comp *extract.CompiledTuple) ([]symtab.Symbol, int) {
			return htmltok.NewMapper(comp.Tab).Map(html).Syms, rows
		}
	}
	cases := []benchCase{{"e22-k3-64rows", e22Src(3), e22Sigma, page(e22Page(64, 3), 64), false}}
	for _, k := range []int{2, 3, 4} {
		cases = append(cases, benchCase{fmt.Sprintf("records-k%d-48rows", k), recordsSrc(k), recordsSigma, page(recordsPage(48, k), 48), false})
	}
	witness := func(comp *extract.CompiledTuple) ([]symtab.Symbol, int) {
		rng := rand.New(rand.NewSource(1))
		p, q := comp.Tab.Lookup("p"), comp.Tab.Lookup("q")
		word := make([]symtab.Symbol, 20000)
		vecs := 0
		for i := range word {
			word[i] = q
			if rng.Intn(2) == 0 {
				word[i] = p
			}
			if i >= 12 && word[i] == p && word[i-12] == p { // a pivot: a p 12 symbols after a p
				vecs++
			}
		}
		return word, vecs
	}
	witnessSrc := "(p | q)* p" + strings.Repeat(" (p | q)", 11) + " <p> .*"
	for _, cold := range []bool{true, false} {
		name := map[bool]string{true: "cold", false: "warm"}[cold]
		cases = append(cases, benchCase{"witness-n12-20000syms/" + name, witnessSrc, []string{"p", "q"}, witness, cold})
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			comp, err := extract.CompileTupleArtifact(tc.src, tc.sigma, DefaultOptions)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := spanner.Compile(comp.Tuple, DefaultOptions)
			if err != nil {
				b.Fatal(err)
			}
			word, want := tc.input(comp)
			var nodes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.cold {
					b.StopTimer()
					if prog, err = spanner.Compile(comp.Tuple, DefaultOptions); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				m, err := prog.Run(word)
				if err != nil {
					b.Fatal(err)
				}
				nodes = m.Nodes()
				vecs, err := m.All()
				if err != nil {
					b.Fatal(err)
				}
				if len(vecs) != want {
					b.Fatalf("%d vectors, want %d", len(vecs), want)
				}
			}
			b.ReportMetric(float64(nodes)/float64(len(word)), "nodes/token")
		})
	}
}
