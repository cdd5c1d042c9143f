package htmltok

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"resilex/internal/symtab"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestScanBasic(t *testing.T) {
	toks := Scan(`<p>Hello <b>world</b></p>`)
	want := []struct {
		kind Kind
		name string
	}{
		{StartTag, "P"}, {Text, ""}, {StartTag, "B"}, {Text, ""}, {EndTag, "B"}, {EndTag, "P"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), kinds(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Name != w.name {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Name, w.kind, w.name)
		}
	}
}

func TestScanAttributes(t *testing.T) {
	toks := Scan(`<input type="radio" name='attr' value=1 checked>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	tok := toks[0]
	if tok.Name != "INPUT" || tok.Kind != StartTag {
		t.Fatalf("tok = %+v", tok)
	}
	cases := map[string]string{"type": "radio", "name": "attr", "value": "1", "checked": ""}
	for k, want := range cases {
		got, ok := tok.Attr(k)
		if !ok || got != want {
			t.Errorf("attr %q = %q, %v; want %q", k, got, ok, want)
		}
	}
	if _, ok := tok.Attr("absent"); ok {
		t.Error("absent attribute found")
	}
}

func TestScanSelfClosing(t *testing.T) {
	toks := Scan(`<br/><input type="image" src="x.gif" />`)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens", len(toks))
	}
	for _, tok := range toks {
		if tok.Kind != SelfClosingTag {
			t.Errorf("%s not self-closing: %v", tok.Name, tok.Kind)
		}
	}
	if v, _ := toks[1].Attr("src"); v != "x.gif" {
		t.Errorf("src = %q", v)
	}
}

func TestScanCommentsAndDoctype(t *testing.T) {
	toks := Scan(`<!DOCTYPE html><!-- a <b> comment --><p>x</p>`)
	if toks[0].Kind != Doctype || toks[1].Kind != Comment {
		t.Fatalf("kinds = %v", kinds(toks))
	}
	if toks[2].Kind != StartTag || toks[2].Name != "P" {
		t.Errorf("after comment: %+v", toks[2])
	}
	// Unterminated comment swallows the rest.
	toks = Scan(`<p><!-- open`)
	if len(toks) != 2 || toks[1].Kind != Comment {
		t.Errorf("unterminated comment: %v", kinds(toks))
	}
}

func TestScanRawText(t *testing.T) {
	toks := Scan(`<script>if (a < b) { x("<p>"); }</script><p>`)
	if toks[0].Name != "SCRIPT" {
		t.Fatalf("first token %+v", toks[0])
	}
	// The script body is one text token; no P tag from inside the string.
	var names []string
	for _, tok := range toks {
		if tok.Kind == StartTag {
			names = append(names, tok.Name)
		}
	}
	if len(names) != 2 || names[1] != "P" {
		t.Errorf("start tags = %v, want [SCRIPT P]", names)
	}
	// Unterminated raw text.
	toks = Scan(`<style>body {}`)
	if toks[0].Name != "STYLE" {
		t.Errorf("toks = %v", kinds(toks))
	}
}

// TestScanRawTextLinear: Scan finds each raw-text close tag by searching
// the page in place, so its heap traffic stays proportional to the page even
// when raw-text elements are many. Lowering a copy of the rest of the page
// per element would cost this 192 KB page gigabytes.
func TestScanRawTextLinear(t *testing.T) {
	page := strings.Repeat("<title>x</title><p>y</p>", 8000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	toks := Scan(page)
	runtime.ReadMemStats(&after)
	if len(toks) != 6*8000 {
		t.Fatalf("got %d tokens, want %d", len(toks), 6*8000)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 100*uint64(len(page)) {
		t.Fatalf("Scan allocated %d bytes on a %d-byte page, want at most 100x", alloc, len(page))
	}
}

func TestScanMalformed(t *testing.T) {
	cases := []string{
		`a < b and c > d`,
		`<`,
		`<<p>>`,
		`<p`,
		`</>`,
		`<input type=">`,
		``,
		`plain text only`,
	}
	for _, src := range cases {
		toks := Scan(src) // must not panic
		for _, tok := range toks {
			if tok.Start < 0 || tok.End > len(src) || tok.Start > tok.End {
				t.Errorf("Scan(%q): bad span %+v", src, tok)
			}
		}
	}
}

func TestScanSpans(t *testing.T) {
	src := `<p><h1>Title</h1></p>`
	toks := Scan(src)
	for _, tok := range toks {
		frag := src[tok.Start:tok.End]
		switch tok.Kind {
		case StartTag:
			if !strings.HasPrefix(frag, "<") || !strings.HasSuffix(frag, ">") {
				t.Errorf("span of %s = %q", tok.Name, frag)
			}
		case Text:
			if frag != "Title" {
				t.Errorf("text span = %q", frag)
			}
		}
	}
}

// figure1TopHTML is the top document of the paper's Figure 1, verbatim.
const figure1TopHTML = `<P>
<H1>Virtual Supplier, Inc.</H1>
<P>
<form method="post" action="search.cgi">
<input type="image" align="left" src="search.gif" />
<input type="text" size="15" name="value" />
<br />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form>`

func TestMapperFigure1(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.Skip = map[string]bool{"BR": true}
	doc := m.Map(figure1TopHTML)
	got := tab.String(doc.Syms)
	want := "P H1 /H1 P FORM INPUT INPUT INPUT INPUT /FORM"
	if got != want {
		t.Errorf("mapped = %q, want %q", got, want)
	}
	// Span of the second INPUT maps back to the text input tag.
	idx := doc.Find(tab.Lookup("INPUT"), 1)
	if idx < 0 {
		t.Fatal("second INPUT not found")
	}
	if src := doc.Source(idx); !strings.Contains(src, `type="text"`) {
		t.Errorf("second INPUT source = %q", src)
	}
	if doc.SpanOf(idx).Start <= 0 {
		t.Error("span start not positive")
	}
}

// TestResolveAllocsFlat: Resolve's allocations do not scale with the token
// count. Only the Syms and Spans slices grow, by doubling, so the Figure 1
// page, bare (0.3 KB) and padded with E21's 1000 filler rows (52 KB), stays
// within a small constant.
func TestResolveAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the warm path")
	}
	const fillerRow = "<tr><td><a href=\"cust.html\">filler row</a></td></tr>\n"
	formAt := strings.Index(figure1TopHTML, "<form")
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.Skip = map[string]bool{"BR": true}
	for _, c := range []struct {
		rows      int
		maxAllocs float64
	}{{0, 32}, {1000, 64}} {
		page := figure1TopHTML[:formAt] + strings.Repeat(fillerRow, c.rows) + figure1TopHTML[formAt:]
		m.Map(page) // intern the page's names, as training would
		allocs := testing.AllocsPerRun(20, func() { m.Resolve(page) })
		if allocs > c.maxAllocs {
			t.Errorf("Resolve on a %.1f KB page: %.0f allocations, want at most %.0f",
				float64(len(page))/1024, allocs, c.maxAllocs)
		}
	}
}

// TestMapperConcurrentCalls: Map and Resolve keep their streamer and
// end-tag scratch local to the call, so one Mapper serves concurrent calls,
// as a wrapper's does under the batch worker pool. Run with -race.
func TestMapperConcurrentCalls(t *testing.T) {
	m := NewMapper(symtab.NewTable())
	m.KeepText = true
	want := mapReference(m, figure1TopHTML, true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, doc := range []Document{m.Map(figure1TopHTML), m.Resolve(figure1TopHTML)} {
					if !reflect.DeepEqual(doc.Syms, want.Syms) || !reflect.DeepEqual(doc.Spans, want.Spans) {
						t.Errorf("concurrent call mapped %v %v, want %v %v", doc.Syms, doc.Spans, want.Syms, want.Spans)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestMapperAttrRefinement(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.AttrKeys = []string{"type"}
	doc := m.Map(`<input type="text"><input type="radio"><input>`)
	got := tab.String(doc.Syms)
	want := "INPUT[type=text] INPUT[type=radio] INPUT"
	if got != want {
		t.Errorf("refined = %q, want %q", got, want)
	}
}

func TestMapperText(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.KeepText = true
	doc := m.Map(`<p>hello</p>`)
	if got := tab.String(doc.Syms); got != "P #text /P" {
		t.Errorf("with text = %q", got)
	}
	// Whitespace-only runs are never emitted.
	doc = m.Map("<p>   \n </p>")
	if got := tab.String(doc.Syms); got != "P /P" {
		t.Errorf("whitespace text = %q", got)
	}
}

func TestMapperNoEndTags(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.KeepEndTags = false
	doc := m.Map(`<p><b>x</b></p>`)
	if got := tab.String(doc.Syms); got != "P B" {
		t.Errorf("no-end = %q", got)
	}
}

func TestDocumentAlphabetAndFind(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	doc := m.Map(`<tr></tr><tr></tr><tr></tr>`)
	if doc.Alphabet().Len() != 2 {
		t.Errorf("alphabet = %d symbols", doc.Alphabet().Len())
	}
	tr := tab.Lookup("TR")
	if doc.Find(tr, 2) != 4 {
		t.Errorf("third TR at %d, want 4", doc.Find(tr, 2))
	}
	if doc.Find(tr, 3) != -1 {
		t.Error("nonexistent occurrence found")
	}
}

func TestScanGtInsideQuotedAttr(t *testing.T) {
	toks := Scan(`<input value="a>b"><p>`)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens: %v", len(toks), kinds(toks))
	}
	if v, _ := toks[0].Attr("value"); v != "a>b" {
		t.Errorf("value = %q", v)
	}
	if toks[1].Name != "P" {
		t.Errorf("second token = %+v", toks[1])
	}
}

func TestScanCDATAAndProcessing(t *testing.T) {
	toks := Scan(`<![CDATA[ <p> not a tag ]]><p>`)
	// The declaration-like block is consumed as one Doctype token up to the
	// first '>', the rest degrades to text; the final <p> must survive.
	foundP := false
	for _, tok := range toks {
		if tok.Kind == StartTag && tok.Name == "P" {
			foundP = true
		}
	}
	if !foundP {
		t.Errorf("trailing <p> lost: %v", kinds(toks))
	}
}

func TestScanNumericTagNames(t *testing.T) {
	toks := Scan(`<h1>x</h1><h2>y</h2>`)
	if toks[0].Name != "H1" || toks[3].Name != "H2" {
		t.Errorf("names = %s %s", toks[0].Name, toks[3].Name)
	}
}

func TestMapperSkipCaseSensitivity(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.Skip = map[string]bool{"BR": true}
	doc := m.Map(`<br><BR><Br/>`)
	if len(doc.Syms) != 0 {
		t.Errorf("BR variants not skipped: %s", tab.String(doc.Syms))
	}
}

// Regression: a truncated end tag with a trailing '/' at end of input
// ("</p/") used to hang the attribute loop (found by FuzzScan).
func TestScanTruncatedSlash(t *testing.T) {
	for _, src := range []string{`<p>x</p/`, `<p/`, `<input //`, `<a / href=x`} {
		toks := Scan(src) // must terminate
		for _, tok := range toks {
			if tok.Start < 0 || tok.End > len(src) {
				t.Errorf("Scan(%q): bad span %+v", src, tok)
			}
		}
	}
}
