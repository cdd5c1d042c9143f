package htmltok

import (
	"math/rand"
	"reflect"
	"testing"

	"resilex/internal/symtab"
)

// collectStream runs src through a Streamer in the given chunk sizes and
// returns the emitted tokens with Name/Bytes materialized (they alias
// streamer buffers during emit).
func collectStream(src string, chunks []int, parseAttrs bool) []Token {
	var out []Token
	s := NewStreamer(func(t RawToken) {
		out = append(out, Token{
			Kind:  t.Kind,
			Name:  string(t.Name),
			Attrs: t.Attrs,
			Start: t.Start,
			End:   t.End,
		})
	})
	s.ParseAttrs = parseAttrs
	rest := []byte(src)
	for _, n := range chunks {
		if n > len(rest) {
			n = len(rest)
		}
		s.Feed(rest[:n])
		rest = rest[n:]
	}
	s.Feed(rest)
	s.Close()
	return out
}

// scanTokens adapts Scan's output for comparison: Text/Comment/Doctype
// carry no Name, and attrs are dropped unless requested.
func scanTokens(src string, withAttrs bool) []Token {
	toks := Scan(src)
	out := make([]Token, len(toks))
	for i, t := range toks {
		out[i] = Token{Kind: t.Kind, Name: t.Name, Start: t.Start, End: t.End}
		if withAttrs {
			out[i].Attrs = t.Attrs
		}
	}
	return out
}

// streamerDocs are documents chosen so that chunk splits land inside every
// construct kind: tags with quoted '>' characters, comments, doctype,
// raw-text elements (terminated and not), stray '<', multi-byte UTF-8 in
// text and attribute values, and the PR 7 invalid-UTF-8 raw-text crasher.
var streamerDocs = []string{
	"",
	"plain text only",
	"<p>x</p>",
	"<FORM action=\"/a?x=1&y=2\"><INPUT type=\"text\" name='q' checked></FORM>",
	"<!-- a comment with <tags> inside --><!DOCTYPE html><html></html>",
	"<script>if (a<b) { f(\"</div>\") }</script><p>after</p>",
	"<style>p > a { color: red }</style>",
	"<textarea>free < text</textarea>",
	"<p>héllo wörld — 漢字テスト</p>",
	"<a href=\"x>y\" title='quoted > close'>link</a>",
	"< p stray",
	"<<>>",
	"</",
	"<p>x</p/",
	"<sCript>\xfd\xd4\xec\xb0\xe8</sCript>",
	"<sCript>\xfd\xd4\xec\xb0\xe8</sCript",
	"a<b>c</b",
	"<input type=\">",
	"text <!-- unterminated comment",
	"<!DOCTYPE unterminated",
	"<div class=x data-y=1/>tail</div>",
	"\x00<\xff>",
	"<TITLE>page — ünïcode</TITLE><BODY>rest</BODY>",
}

// TestStreamerMatchesScanAllSplits is the boundary-straddling regression
// suite: for every document, every 2-chunk split point (including splits in
// the middle of multi-byte UTF-8 sequences, tag names, comments and
// raw-text close sequences) must reproduce Scan's token stream exactly,
// and pass checkResolverChunks through a resolver-built streamer.
func TestStreamerMatchesScanAllSplits(t *testing.T) {
	for _, src := range streamerDocs {
		want := scanTokens(src, false)
		for cut := 0; cut <= len(src); cut++ {
			got := collectStream(src, []int{cut}, false)
			if !tokensEqual(got, want) {
				t.Fatalf("doc %q split at %d:\n got %+v\nwant %+v", src, cut, got, want)
			}
			checkResolverChunks(t, src, cut)
		}
	}
}

// TestStreamerMatchesScanSmallChunks drips every document through the
// streamer byte-by-byte and in random small chunks.
func TestStreamerMatchesScanSmallChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, src := range streamerDocs {
		want := scanTokens(src, false)
		ones := make([]int, len(src))
		for i := range ones {
			ones[i] = 1
		}
		if got := collectStream(src, ones, false); !tokensEqual(got, want) {
			t.Fatalf("doc %q byte-by-byte:\n got %+v\nwant %+v", src, got, want)
		}
		for trial := 0; trial < 20; trial++ {
			var chunks []int
			for rem := len(src); rem > 0; {
				n := 1 + rng.Intn(5)
				if n > rem {
					n = rem
				}
				chunks = append(chunks, n)
				rem -= n
			}
			if got := collectStream(src, chunks, false); !tokensEqual(got, want) {
				t.Fatalf("doc %q chunks %v:\n got %+v\nwant %+v", src, chunks, got, want)
			}
		}
	}
}

// TestStreamerParseAttrs: with ParseAttrs set, attributes match Scan's for
// every split of an attribute-heavy document.
func TestStreamerParseAttrs(t *testing.T) {
	src := "<INPUT type=\"radio\" name='q' checked value=a/b><a href=\"x>y\" >t</a>"
	want := scanTokens(src, true)
	for cut := 0; cut <= len(src); cut++ {
		got := collectStream(src, []int{cut}, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d:\n got %+v\nwant %+v", cut, got, want)
		}
	}
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Name != b[i].Name ||
			a[i].Start != b[i].Start || a[i].End != b[i].End {
			return false
		}
	}
	return true
}

// TestStreamerReset: a recycled streamer starts a fresh document with fresh
// offsets and no leftover construct state.
func TestStreamerReset(t *testing.T) {
	var got []Token
	s := NewStreamer(func(t RawToken) {
		got = append(got, Token{Kind: t.Kind, Name: string(t.Name), Start: t.Start, End: t.End})
	})
	s.Feed([]byte("<p>first<!-- unterminated"))
	s.Reset()
	got = got[:0]
	s.Feed([]byte("<div>x</div>"))
	s.Close()
	want := scanTokens("<div>x</div>", false)
	if !tokensEqual(got, want) {
		t.Fatalf("after Reset:\n got %+v\nwant %+v", got, want)
	}
	chunks, carries := s.Stats()
	if chunks != 2 || carries != 0 {
		t.Errorf("Stats = %d,%d, want 2,0", chunks, carries)
	}
}

// TestStreamerCarryStats: a boundary inside a token is counted as a carry.
func TestStreamerCarryStats(t *testing.T) {
	s := NewStreamer(func(RawToken) {})
	s.Feed([]byte("<di"))
	s.Feed([]byte("v>x</div>"))
	s.Close()
	if _, carries := s.Stats(); carries != 1 {
		t.Errorf("carries = %d, want 1", carries)
	}
}

// TestStreamSymMatchesMap: feeding streamed tokens through StreamSym yields
// the same symbol sequence as the Scan-driven reference mapping, provided
// the names were interned during training — and None (out of Σ) for fresh
// names, which Map would intern as fresh (equally out-of-Σ) symbols.
func TestStreamSymMatchesMap(t *testing.T) {
	src := "<FORM><INPUT type=a><!-- c -->text<BR></FORM><NEWTAG>"
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.KeepText = true
	m.Skip = map[string]bool{"BR": true}
	doc := mapReference(m, src, true) // interns FORM, INPUT, #text, /FORM, NEWTAG
	var streamed []symtab.Symbol
	s := NewStreamer(func(rt RawToken) {
		if sym, ok := m.StreamSym(rt); ok {
			streamed = append(streamed, sym)
		}
	})
	for i := 0; i < len(src); i += 3 {
		end := i + 3
		if end > len(src) {
			end = len(src)
		}
		s.Feed([]byte(src[i:end]))
	}
	s.Close()
	if !reflect.DeepEqual(streamed, doc.Syms) {
		t.Fatalf("streamed %v, Map %v", streamed, doc.Syms)
	}
	// A name never interned resolves to None but still occupies a position.
	fresh := symtab.NewTable()
	fm := NewMapper(fresh)
	var syms []symtab.Symbol
	fs := NewStreamer(func(rt RawToken) {
		if sym, ok := fm.StreamSym(rt); ok {
			syms = append(syms, sym)
		}
	})
	fs.Feed([]byte("<UNSEEN>"))
	fs.Close()
	if len(syms) != 1 || syms[0] != symtab.None {
		t.Fatalf("fresh tag resolved to %v, want [None]", syms)
	}
}

// TestStreamSymSeesLaterNames: StreamSym freezes a resolver over the table
// at its first call, yet a name interned after that still resolves to its
// symbol, and a name outside the table to None.
func TestStreamSymSeesLaterNames(t *testing.T) {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	form := tab.Intern("FORM")
	sym := func(name string) symtab.Symbol {
		t.Helper()
		s, ok := m.StreamSym(RawToken{Kind: StartTag, Name: []byte(name)})
		if !ok {
			t.Fatalf("StreamSym dropped <%s>", name)
		}
		return s
	}
	if got := sym("FORM"); got != form {
		t.Fatalf("FORM resolved to %v, want %v", got, form)
	}
	if got := sym("BLINK"); got != symtab.None {
		t.Fatalf("BLINK resolved to %v before it was interned, want None", got)
	}
	blink := tab.Intern("BLINK")
	if got := sym("BLINK"); got != blink {
		t.Fatalf("BLINK resolved to %v after it was interned, want %v", got, blink)
	}
}

// TestStreamerFeedNoAllocWarm: a warm streamer tokenizing chunk-split HTML
// (without ParseAttrs) performs no allocations per Feed.
func TestStreamerFeedNoAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the warm path")
	}
	src := []byte("<FORM action=x><INPUT type=y>text runs here<P>more</P></FORM>")
	s := NewStreamer(func(RawToken) {})
	for i := 0; i < 4; i++ { // warm carry/name buffers
		s.Reset()
		s.Feed(src[:17])
		s.Feed(src[17:])
		s.Close()
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.Feed(src[:17])
		s.Feed(src[17:])
		s.Close()
	})
	if allocs != 0 {
		t.Fatalf("warm streamer allocated %.1f times per document, want 0", allocs)
	}
}

// FuzzStreamerChunks is the chunk-boundary differential fuzz target: any
// byte string cut at any position must tokenize exactly as Scan does on the
// whole, and resolve through a resolver-built streamer under every mix of
// mapper settings as mapReference maps the whole (checkResolverChunks),
// dropped text included. Seeded with the invalid-UTF-8 raw-text crasher,
// the historical Scan crashers and cuts inside a tag name and a raw-text
// element.
func FuzzStreamerChunks(f *testing.F) {
	f.Add("<p>x</p>", uint8(2))
	f.Add("<sCript>\xfd\xd4\xec\xb0\xe8</sCript", uint8(9))
	f.Add("<p>x</p/", uint8(4))
	f.Add("<!-- c --><a href=\"x>y\">t</a>", uint8(12))
	f.Add("<TITLE>héllo", uint8(8))
	f.Add("<FORM><INPUT type=text name=q></FORM>", uint8(9))
	f.Add("<sCript>a<b</sCript><br>", uint8(14))
	f.Add("text <!-- c --> more<p", uint8(3))
	f.Fuzz(func(t *testing.T, src string, cut8 uint8) {
		want := scanTokens(src, false)
		cut := 0
		if len(src) > 0 {
			cut = int(cut8) % (len(src) + 1)
		}
		got := collectStream(src, []int{cut}, false)
		if !tokensEqual(got, want) {
			t.Fatalf("split at %d of %q:\n got %+v\nwant %+v", cut, src, got, want)
		}
		checkResolverChunks(t, src, cut)
	})
}
