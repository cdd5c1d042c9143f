package htmltok

import (
	"fmt"
	"reflect"
	"testing"

	"resilex/internal/symtab"
)

// FuzzScan asserts the tokenizer never panics on arbitrary bytes and always
// produces tokens with sane, in-bounds, non-decreasing spans, and that Map
// and a Resolver's Resolve equal mapReference under every mix of mapper
// settings.
func FuzzScan(f *testing.F) {
	seeds := []string{
		"<p>x</p>",
		"<input type=\"text\" name='q' checked>",
		"<!-- comment --><!DOCTYPE html>",
		"<script>if (a<b) {}</script>",
		"< p", "<<>>", "</", "<a b=c d>", "\x00<\xff>", "<style>",
		"<p", "a<b>c</b", "<input type=\">",
	}
	for _, s := range append(seeds, streamerDocs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks := Scan(src)
		last := 0
		for _, tok := range toks {
			if tok.Start < 0 || tok.End > len(src) || tok.Start > tok.End {
				t.Fatalf("bad span %+v for input %q", tok, src)
			}
			if tok.Start < last {
				t.Fatalf("tokens out of order at %+v for input %q", tok, src)
			}
			last = tok.Start
		}
		for mix := 0; mix < 16; mix++ {
			checkMapMatchesReference(t, src, mix)
		}
	})
}

// mixMapper returns a mapper over tab under one mix of settings: bit 0
// KeepText, bit 1 end tags dropped, bit 2 Skip, bit 3 AttrKeys.
func mixMapper(tab *symtab.Table, mix int) *Mapper {
	m := NewMapper(tab)
	m.KeepText = mix&1 != 0
	m.KeepEndTags = mix&2 == 0
	if mix&4 != 0 {
		m.Skip = map[string]bool{"BR": true, "P": true, "SCRIPT": true}
	}
	if mix&8 != 0 {
		m.AttrKeys = []string{"type", "name"}
	}
	return m
}

// halfResolver interns into tab the names mapReference meets on the first
// half of src and returns mix's resolver over Σ = those names, so that both
// names in Σ and names outside it (None) occur on src.
func halfResolver(tab *symtab.Table, src string, mix int) *Resolver {
	m := mixMapper(tab, mix)
	mapReference(m, src[:len(src)/2], true)
	return m.Resolver(symtab.NewAlphabet(symtab.NewTable().InternAll(tab.Names()...)...))
}

// sameDoc fails the test unless got and want hold the same symbols and
// spans.
func sameDoc(t *testing.T, what string, got, want Document) {
	t.Helper()
	if !reflect.DeepEqual(got.Syms, want.Syms) || !reflect.DeepEqual(got.Spans, want.Spans) {
		t.Fatalf("%s:\n got %v %v\nwant %v %v", what, got.Syms, got.Spans, want.Syms, want.Spans)
	}
}

// checkMapMatchesReference compares Map and a Resolver's Resolve with
// mapReference on src under one mix of mapper settings (see mixMapper):
// the symbols, the spans and the table's names in interning order must all
// agree.
func checkMapMatchesReference(t *testing.T, src string, mix int) {
	t.Helper()
	sameNames := func(op string, got, want *symtab.Table) {
		t.Helper()
		if g, w := got.Names(), want.Names(); !reflect.DeepEqual(g, w) {
			t.Fatalf("mix %d: %s(%q) interned %q, want %q", mix, op, src, g, w)
		}
	}
	wantTab, gotTab := symtab.NewTable(), symtab.NewTable()
	want := mapReference(mixMapper(wantTab, mix), src, true)
	sameDoc(t, fmt.Sprintf("mix %d: Map(%q)", mix, src), mixMapper(gotTab, mix).Map(src), want)
	sameNames("Map", gotTab, wantTab)

	half := symtab.NewTable()
	r := halfResolver(half, src, mix)
	names := half.Names()
	want = mapReference(mixMapper(half, mix), src, false)
	sameDoc(t, fmt.Sprintf("mix %d: Resolve(%q)", mix, src), r.Resolve(src), want)
	if got := half.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("mix %d: Resolve(%q) grew the table to %q", mix, src, got)
	}
}

// resolveChunks feeds src to r's Streamer in two pieces, cut at cut, and
// keeps the tokens Sym does not drop: a serving session's pass. It also
// returns every token the streamer sent.
func resolveChunks(r *Resolver, src string, cut int) (Document, []Token) {
	var doc Document
	var sent []Token
	s := r.Streamer(func(tok *RawToken) {
		sent = append(sent, Token{Kind: tok.Kind, Name: string(tok.Name), Start: tok.Start, End: tok.End})
		if sym, ok := r.Sym(tok); ok {
			doc.Syms = append(doc.Syms, sym)
			doc.Spans = append(doc.Spans, Span{tok.Start, tok.End})
		}
	})
	s.Feed([]byte(src[:cut]))
	s.Feed([]byte(src[cut:]))
	s.Close()
	return doc, sent
}

// checkResolverChunks feeds src in two pieces, cut at cut, through a
// resolver-built streamer under every mix of mapper settings. The streamer
// must send Scan's tokens, less the Text tokens when the resolver drops
// text, and Sym must resolve them as mapReference maps the whole: dropped
// text, and a cut inside a tag name, change no symbol and no span.
func checkResolverChunks(t *testing.T, src string, cut int) {
	t.Helper()
	all := scanTokens(src, false)
	var tags []Token
	for _, tok := range all {
		if tok.Kind != Text {
			tags = append(tags, tok)
		}
	}
	for mix := 0; mix < 16; mix++ {
		tab := symtab.NewTable()
		r := halfResolver(tab, src, mix)
		what := fmt.Sprintf("mix %d: %q cut at %d", mix, src, cut)
		doc, sent := resolveChunks(r, src, cut)
		want := tags
		if r.keepText {
			want = all
		}
		if !tokensEqual(sent, want) {
			t.Fatalf("%s: streamer sent\n %+v\nwant %+v", what, sent, want)
		}
		sameDoc(t, what, doc, mapReference(mixMapper(tab, mix), src, false))
	}
}
