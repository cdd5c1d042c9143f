package htmltok

import (
	"reflect"
	"strings"
	"testing"

	"resilex/internal/symtab"
)

// TestResolverScope: a Resolver answers from its own Σ, not from the table
// it was built over. Names the table holds outside Σ resolve to None, Skip
// drops a tag and its end tag whether or not Σ holds them, and names match
// byte for byte, so a lower-case Skip entry skips nothing. An empty name,
// which no token carries, in Σ or Skip changes nothing.
func TestResolverScope(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.KeepText = true
	m.Skip = map[string]bool{"BR": true, "hr": true, "": true}
	sigma := symtab.NewAlphabet(tab.InternAll("FORM", "/FORM", TextSymbolName, "BR", "")...)
	tab.InternAll("P", "/P", "HR") // in the table, outside Σ
	r := m.Resolver(sigma)
	doc := r.Resolve("<form><p>x</p><br></br><hr><!-- c --></form>")
	n := symtab.None
	want := []symtab.Symbol{tab.Lookup("FORM"), n, tab.Lookup(TextSymbolName), n, n, tab.Lookup("/FORM")}
	if !reflect.DeepEqual(doc.Syms, want) {
		t.Fatalf("resolved %v, want %v", doc.Syms, want)
	}
	// Every miss ends on a free slot, so none may carry an outcome.
	for _, s := range r.slots {
		if s.name == "" && (s.start != n || s.end != n || s.skip) {
			t.Fatalf("free slot carries an outcome: %+v", s)
		}
	}
}

// TestResolverSymNoAlloc: a resolver's per-token lookup does not allocate,
// on any outcome without AttrKeys: a symbol in Σ, an end tag, text, a name
// outside Σ, a skipped tag and a dropped comment.
func TestResolverSymNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the warm path")
	}
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.KeepText = true
	m.Skip = map[string]bool{"BR": true}
	r := m.Resolver(symtab.NewAlphabet(tab.InternAll("FORM", "/FORM", "INPUT", TextSymbolName)...))
	toks := []RawToken{
		{Kind: StartTag, Name: []byte("FORM")},
		{Kind: SelfClosingTag, Name: []byte("INPUT")},
		{Kind: Text},
		{Kind: StartTag, Name: []byte("BLINK")},
		{Kind: StartTag, Name: []byte("BR")},
		{Kind: Comment},
		{Kind: EndTag, Name: []byte("FORM")},
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := range toks {
			if sym, ok := r.Sym(&toks[i]); ok {
				sink += int(sym)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("resolver lookups allocated %.1f times per pass, want 0", allocs)
	}
	_ = sink
}

// TestDroppedTextLeavesCarryBounded: a streamer whose resolver drops text
// consumes a text run or raw-text content as it scans it, so a long one fed
// in small chunks never builds up in the carry: at most a '<' still being
// classified (three bytes), or the last bytes a raw-text close could start
// in. The tags around the dropped bytes keep Scan's spans.
func TestDroppedTextLeavesCarryBounded(t *testing.T) {
	tab := symtab.NewTable()
	r := NewMapper(tab).Resolver(symtab.NewAlphabet(tab.InternAll("P", "SCRIPT", "/SCRIPT", "BR")...))
	long := strings.Repeat("a < b ", 20000)
	for _, src := range []string{
		"<p>" + long + "<br>",
		"<script>" + long + "</script><br>",
		"<p>" + long + "<!-",
	} {
		var got []Token
		s := r.Streamer(func(tok *RawToken) {
			got = append(got, Token{Kind: tok.Kind, Name: string(tok.Name), Start: tok.Start, End: tok.End})
		})
		for off := 0; off < len(src); off += 1000 {
			s.Feed([]byte(src[off:min(off+1000, len(src))]))
			if len(s.carry) >= len("</script") {
				t.Fatalf("%.12q…: carry holds %d bytes after the chunk at %d", src, len(s.carry), off)
			}
		}
		s.Close()
		var want []Token
		for _, tok := range scanTokens(src, false) {
			if tok.Kind != Text {
				want = append(want, tok)
			}
		}
		if !tokensEqual(got, want) {
			t.Fatalf("%.12q…: sent %+v, want %+v", src, got, want)
		}
	}
}
