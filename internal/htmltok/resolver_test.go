package htmltok

import (
	"reflect"
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
