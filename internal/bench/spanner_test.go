package bench

import (
	"fmt"
	"strings"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/spanner"
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
// backward prune and the enumeration — on E22's k=3 64-row page and on a
// k=3 48-row table shaped like the serving benchmark's tuples-records pages.
func BenchmarkSpannerRun(b *testing.B) {
	cases := []struct {
		name  string
		src   string
		sigma []string
		page  string
		rows  int
	}{
		{"e22-k3-64rows", e22Src(3), e22Sigma, e22Page(64, 3), 64},
		{"records-k3-48rows", recordsSrc(3), recordsSigma, recordsPage(48, 3), 48},
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
			word := htmltok.NewMapper(comp.Tab).Map(tc.page).Syms
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := prog.Run(word)
				if err != nil {
					b.Fatal(err)
				}
				vecs, err := m.All()
				if err != nil {
					b.Fatal(err)
				}
				if len(vecs) != tc.rows {
					b.Fatalf("%d vectors, want %d", len(vecs), tc.rows)
				}
			}
		})
	}
}
