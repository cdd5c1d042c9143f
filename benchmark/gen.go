package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"resilex/internal/htmltok"
	"resilex/internal/perturb"
	"resilex/internal/wrapper"
)

// Input generation. Everything here is a pure function of the workload name
// and the seed: the server receives only the bytes built here, and the
// oracle answers are computed from them before any clock starts.

// zipfS is the key-popularity skew of the Figure-1 workloads.
const zipfS = 1.1

// rngFor derives an independent generator per input component, so adding a
// draw to one component never shifts another's inputs.
func rngFor(seed int64, component string) *rand.Rand {
	h := int64(1469598103934665603)
	for i := 0; i < len(component); i++ {
		h = (h ^ int64(component[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ h))
}

// stratified returns n values spread over [lo, hi) one per equal-width
// stratum, shuffled. Pools drawn this way have nearly the same size
// distribution under every seed, which keeps run-to-run spread across seeds
// close to the spread across repeats of one seed.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+rng.Float64())/float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// site is one Figure-1-shaped web site: two training layouts that share one
// search form, a third layout the wrapper never saw, and the wrapper trained
// from the first two. Layouts mark the target input with data-target.
type site struct {
	key     string
	layouts [3]string // top, bottom, novel
	payload []byte    // persisted wrapper JSON
}

// extraVocab is the pool of tags a site's wrapper may admit beyond its
// training pages; the HTML perturber inserts several of them, so the subset
// a site draws decides which edits its wrapper survives.
var extraVocab = []string{"DIV", "/DIV", "HR", "H2", "/H2", "IMG", "SPAN", "/SPAN", "UL", "/UL", "LI", "/LI"}

// newSite draws the layouts of one site and trains its wrapper; skip lists
// tags the wrapper's tokenizer drops.
func newSite(rng *rand.Rand, key string, skip []string) site {
	title := fmt.Sprintf("Supplier %d, Inc.", rng.Intn(1000))
	var form strings.Builder
	form.WriteString(`<form method="post" action="search.cgi">` + "\n")
	form.WriteString(`<input type="image" src="search.gif" />` + "\n")
	if rng.Intn(2) == 0 {
		form.WriteString(`<input type="hidden" name="session" value="x" />` + "\n")
	}
	form.WriteString(`<input type="text" size="15" name="value" data-target />` + "\n")
	for r, n := 0, 1+rng.Intn(3); r < n; r++ {
		fmt.Fprintf(&form, `<input type="radio" name="attr" value="%d"> Option %d<br />`+"\n", r, r)
	}
	form.WriteString("</form>")

	top := "<P>\n<H1>" + title + "</H1>\n<P>\n" + form.String()
	var nav strings.Builder
	for r, n := 0, 1+rng.Intn(3); r < n; r++ {
		fmt.Fprintf(&nav, `<tr><td><a href="nav%d.html">Link %d</a></td></tr>`+"\n", r, r)
	}
	bottom := "<table>\n<tr><th><img src=\"logo.gif\"></th></tr>\n<tr><td><h1>" + title + "</h1></td></tr>\n" +
		nav.String() + "<tr><td>" + form.String() + "</td></tr>\n</table>"
	novel := "<table>\n<tr><td><h1>" + title + "</h1></td></tr>\n" +
		`<tr><td><a href="deals.html">Hot Deals</a></td></tr>` + "\n" + nav.String() +
		"<tr><td><div>" + form.String() + "</div></td></tr>\n</table>"

	var extra []string
	for _, t := range extraVocab {
		if rng.Float64() < 0.6 {
			extra = append(extra, t)
		}
	}
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: top, Target: wrapper.TargetMarker()},
		{HTML: bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: skip, ExtraTags: extra})
	if err != nil {
		panic(fmt.Sprintf("benchmark: training %s: %v", key, err))
	}
	payload, err := w.MarshalJSON()
	if err != nil {
		panic(fmt.Sprintf("benchmark: persisting %s: %v", key, err))
	}
	return site{key: key, layouts: [3]string{top, bottom, novel}, payload: payload}
}

// targetSpan locates the data-target element of a layout.
func targetSpan(html string) htmltok.Span {
	for _, t := range htmltok.Scan(html) {
		if _, ok := t.Attr(wrapper.MarkerAttr); ok {
			return htmltok.Span{Start: t.Start, End: t.End}
		}
	}
	panic("benchmark: layout without a data-target element")
}

// fig1Page draws one live page of s: a layout (the novel one a fifth of the
// time), 0–4 perturber edits, the marker stripped, and a footer of in-Σ link
// rows and text padding the page to about size bytes.
func fig1Page(rng *rand.Rand, s site, size int) string {
	layout := s.layouts[rng.Intn(2)]
	if rng.Intn(5) == 0 {
		layout = s.layouts[2]
	}
	p := perturb.NewHTML(rng.Int63())
	page, _ := p.Apply(layout, targetSpan(layout), rng.Intn(5))
	page = strings.Replace(page, " "+wrapper.MarkerAttr, "", 1)
	if len(page) >= size {
		return page
	}
	var b strings.Builder
	b.WriteString(page)
	b.WriteString("\n<table>\n")
	for r := 0; b.Len() < size-len("</table>"); r++ {
		fmt.Fprintf(&b, `<tr><td><a href="/item/%d">%s</a></td></tr>`+"\n", rng.Intn(1<<20), filler(rng, 8+rng.Intn(48)))
	}
	b.WriteString("</table>")
	return b.String()
}

// filler returns n bytes of lower-case words.
func filler(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, n)
	for i := range b {
		if i%7 == 6 {
			b[i] = ' '
		} else {
			b[i] = letters[rng.Intn(len(letters))]
		}
	}
	return string(b)
}

// doc is one page of a pool together with the key whose wrapper runs it.
type doc struct {
	key  string
	html string
}

// fig1Pool draws n pages of 0.3–4 KB over sites, with site keys Zipf(1.1).
func fig1Pool(rng *rand.Rand, sites []site, n int) []doc {
	sizes := stratified(rng, n, 300, 4096)
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(sites)-1))
	out := make([]doc, n)
	for i := range out {
		s := sites[z.Uint64()]
		out[i] = doc{key: s.key, html: fig1Page(rng, s, int(sizes[i]))}
	}
	return out
}

// streamForeign are tags outside every stream-large wrapper's Σ that its
// tokenizer drops (the persisted skip list): rows built from them cost the
// tokenizer bytes and the symbol mapper lookups but never reach the matcher.
var streamForeign = []string{"SECTION", "SPAN", "EM", "SMALL"}

// streamPage pads the bottom layout of s to size bytes with filler rows
// inserted before the form row — half in-Σ link rows the matcher must step
// through, half rows of dropped foreign tags.
func streamPage(rng *rand.Rand, s site, size int) string {
	bottom := strings.Replace(s.layouts[1], " "+wrapper.MarkerAttr, "", 1)
	at := strings.LastIndex(bottom, "<tr><td><form")
	var b strings.Builder
	b.Grow(size + 256)
	b.WriteString(bottom[:at])
	for r := 0; b.Len() < size-(len(bottom)-at); r++ {
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, `<tr><td><a href="cust%d.html">%s</a></td></tr>`+"\n", r, filler(rng, 6+rng.Intn(24)))
		} else {
			fmt.Fprintf(&b, `<section><span>%s</span> <em>%s</em></section>`+"\n", filler(rng, 4+rng.Intn(12)), filler(rng, 4+rng.Intn(12)))
		}
	}
	b.WriteString(bottom[at:])
	return b.String()
}

// tupleShape is one record-table layout of tuples-records.
type tupleShape struct {
	name  string
	sigma []string
	cell  string // the tokens after each pivot TD up to the next pivot
}

var tupleShapes = []tupleShape{
	{"plain", []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "H1", "/H1", "P", "/P"}, "/TD"},
	{"linked", []string{"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "TH", "/TH", "A", "/A", "H1", "/H1", "P", "/P"}, "A /A /TD"},
}

// tupleSource is the k-pivot record expression of shape: k TD pivots with
// exact cell gaps and free context on both sides — one vector per k-cell
// row.
func tupleSource(sh tupleShape, k int) string {
	src := ".* <TD>"
	for j := 1; j < k; j++ {
		src += " " + sh.cell + " <TD>"
	}
	return src + " .*"
}

// tuplePayload persists a tuple wrapper in the serve registration format.
func tuplePayload(src string, sigma, skip []string) []byte {
	b, err := json.Marshal(map[string]any{"version": 1, "kind": "tuple", "expr": src, "sigma": sigma, "skip": skip})
	if err != nil {
		panic(err)
	}
	return b
}

// singlePayload persists a single-pivot wrapper in the serve format.
func singlePayload(src string, sigma, skip []string, strategy string) []byte {
	b, err := json.Marshal(map[string]any{"version": 1, "expr": src, "sigma": sigma, "strategy": strategy, "skip": skip})
	if err != nil {
		panic(err)
	}
	return b
}

// recordTable is a page of one catalogue table with rows k-cell records.
func recordTable(rng *rand.Rand, sh tupleShape, k, rows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<h1>Catalogue %d</h1>\n<p>%s</p>\n<table>\n", rng.Intn(1000), filler(rng, 40+rng.Intn(80)))
	if sh.name == "linked" {
		b.WriteString("<tr>")
		for c := 0; c < k; c++ {
			fmt.Fprintf(&b, "<th>column %d</th>", c)
		}
		b.WriteString("</tr>\n")
	}
	for r := 0; r < rows; r++ {
		b.WriteString("<tr>")
		for c := 0; c < k; c++ {
			if sh.name == "linked" {
				fmt.Fprintf(&b, `<td><a href="/p/%d">%s</a></td>`, rng.Intn(1<<20), filler(rng, 3+rng.Intn(20)))
			} else {
				fmt.Fprintf(&b, "<td>%s</td>", filler(rng, 3+rng.Intn(20)))
			}
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>")
	return b.String()
}

// witnessSource is E17's subset-construction witness (p|q)* p (p|q)^(n-1)
// as the left context of the pivot: its minimal DFA has 2^n states.
func witnessSource(n int) string {
	src := "(p | q)* p"
	for i := 1; i < n; i++ {
		src += " (p | q)"
	}
	return src + " <p> .*"
}

// withExtraSigma returns the single-pivot payload with one more Σ name,
// which gives it a distinct content address (and so a distinct artifact)
// without changing what it extracts from pages that never use the name.
func withExtraSigma(payload []byte, name string) []byte {
	var m map[string]any
	if err := json.Unmarshal(payload, &m); err != nil {
		panic(err)
	}
	m["sigma"] = append(m["sigma"].([]any), name)
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

// logSizes returns n sizes spread log-uniformly over [lo, hi), stratified.
func logSizes(rng *rand.Rand, n int, lo, hi float64) []int {
	out := make([]int, n)
	for i, u := range stratified(rng, n, math.Log(lo), math.Log(hi)) {
		out[i] = int(math.Exp(u))
	}
	return out
}
