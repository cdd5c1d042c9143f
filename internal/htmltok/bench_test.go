package htmltok

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resilex/internal/symtab"
)

// streamLargePage builds a page shaped like the serving benchmark's
// stream-large workload: a Figure-1 head, then about size bytes of rows,
// half in-Σ link rows and half rows of tags the mapper skips, each with a
// short text run, and the form row last.
func streamLargePage(size int) []byte {
	rng := rand.New(rand.NewSource(1))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
			if i%7 == 6 {
				b[i] = ' '
			}
		}
		return string(b)
	}
	var b strings.Builder
	b.WriteString("<html><body><h1>Customers</h1><table>\n")
	for r := 0; b.Len() < size; r++ {
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, `<tr><td><a href="cust%d.html">%s</a></td></tr>`+"\n", r, word(6+rng.Intn(24)))
		} else {
			fmt.Fprintf(&b, `<section><span>%s</span> <em>%s</em></section>`+"\n", word(4+rng.Intn(12)), word(4+rng.Intn(12)))
		}
	}
	b.WriteString(`<tr><td><form><input type="image"><input type="text"></form></td></tr></table></body></html>`)
	return []byte(b.String())
}

// streamLargeResolver is a stream-large wrapper's resolver: end tags kept,
// text dropped, the foreign row tags skipped.
func streamLargeResolver() *Resolver {
	tab := symtab.NewTable()
	m := NewMapper(tab)
	m.Skip = map[string]bool{"SECTION": true, "SPAN": true, "EM": true, "SMALL": true}
	sigma := symtab.NewAlphabet(tab.InternAll("HTML", "/HTML", "BODY", "/BODY", "H1", "/H1",
		"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "A", "/A", "FORM", "/FORM", "INPUT")...)
	return m.Resolver(sigma)
}

var benchSink int

// BenchmarkResolverStream times the serving tokenizer layer alone: a
// 400 KB stream-large-shaped page fed in 32 KB chunks, as the stream
// route's session reads it. "streamer" is the plain Streamer, which sends
// every token Scan would; "resolver" is the resolver's Streamer feeding
// Sym, as every serving route runs it.
func BenchmarkResolverStream(b *testing.B) {
	page := streamLargePage(400 << 10)
	feed := func(b *testing.B, s *Streamer) {
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			for off := 0; off < len(page); off += 32 << 10 {
				s.Feed(page[off:min(off+32<<10, len(page))])
			}
			s.Close()
		}
	}
	b.Run("streamer", func(b *testing.B) {
		n := 0
		feed(b, NewStreamerPtr(func(*RawToken) { n++ }))
		benchSink = n
	})
	b.Run("resolver", func(b *testing.B) {
		r := streamLargeResolver()
		n := 0
		feed(b, r.Streamer(func(t *RawToken) {
			if sym, ok := r.Sym(t); ok {
				n += int(sym)
			}
		}))
		benchSink = n
	})
}
