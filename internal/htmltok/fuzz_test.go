package htmltok

import (
	"reflect"
	"testing"

	"resilex/internal/symtab"
)

// FuzzScan asserts the tokenizer never panics on arbitrary bytes and always
// produces tokens with sane, in-bounds, non-decreasing spans, and that Map
// and Resolve equal mapReference under every mix of mapper settings.
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

// checkMapMatchesReference compares Map and Resolve with mapReference on
// src under one mix of mapper settings (bit 0 KeepText, bit 1 end tags
// dropped, bit 2 Skip, bit 3 AttrKeys): the symbols, the spans and the
// table's names in interning order must all agree.
func checkMapMatchesReference(t *testing.T, src string, mix int) {
	t.Helper()
	mapper := func(tab *symtab.Table) *Mapper {
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
	same := func(op string, got, want Document, gotTab, wantTab *symtab.Table) {
		t.Helper()
		if !reflect.DeepEqual(got.Syms, want.Syms) || !reflect.DeepEqual(got.Spans, want.Spans) {
			t.Fatalf("mix %d: %s(%q):\n got %v %v\nwant %v %v", mix, op, src, got.Syms, got.Spans, want.Syms, want.Spans)
		}
		if g, w := gotTab.Names(), wantTab.Names(); !reflect.DeepEqual(g, w) {
			t.Fatalf("mix %d: %s(%q) interned %q, want %q", mix, op, src, g, w)
		}
	}
	wantTab, gotTab := symtab.NewTable(), symtab.NewTable()
	want := mapReference(mapper(wantTab), src, true)
	same("Map", mapper(gotTab).Map(src), want, gotTab, wantTab)

	// Resolve against a table that knows only the first half's names, so
	// both known and fresh (None) names occur.
	half := symtab.NewTable()
	mapReference(mapper(half), src[:len(src)/2], true)
	names := symtab.NewTable()
	names.InternAll(half.Names()...)
	want = mapReference(mapper(half), src, false)
	same("Resolve", mapper(half).Resolve(src), want, half, names)
}
