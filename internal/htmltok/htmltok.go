// Package htmltok turns HTML pages into the tag-sequence abstraction of the
// paper's Section 3: a document becomes a string of interned token symbols
// ("P H1 /H1 P FORM INPUT …"), with byte spans kept alongside so that an
// extraction position maps back to a region of the original page.
//
// The scanner is a permissive, stdlib-only HTML tokenizer: it handles
// comments, doctype, CDATA sections, raw-text elements (script/style),
// quoted and unquoted attributes, and self-closing tags. It never fails on
// malformed input — stray '<' characters degrade to text, in the spirit of
// browser error recovery — because wrappers must tokenize whatever a web
// server returns. Every route tokenizes with the resumable, allocation-free
// Streamer: Mapper.Map, Resolver.Resolve and the tuples route's pooled
// session feed it a whole page, the stream route's session feeds it request
// chunks. Serving streamers come from Resolver.Streamer and do each job
// once: one loop over a tag name finds its end and upper-cases it, and text
// the resolver drops is skipped from '<' to '<' without being trimmed, sent
// or carried across chunks.
//
// Scan, the Streamer's materialized twin, is the reference it is fuzzed
// against, and serves callers that want Token values with attributes:
// training's marker lookup and internal/perturb. Scan and Mapper.StreamSym
// also stay exported because the serving benchmark (benchmark/) calls
// them; moving Scan into the tests waits until the benchmark no longer
// does.
package htmltok

import (
	"sort"
	"strings"

	"resilex/internal/symtab"
)

// Kind classifies raw HTML tokens.
type Kind int

// Token kinds.
const (
	Text Kind = iota
	StartTag
	EndTag
	SelfClosingTag
	Comment
	Doctype
)

// String names the token kind.
func (k Kind) String() string {
	switch k {
	case Text:
		return "text"
	case StartTag:
		return "start"
	case EndTag:
		return "end"
	case SelfClosingTag:
		return "self-closing"
	case Comment:
		return "comment"
	case Doctype:
		return "doctype"
	}
	return "unknown"
}

// Attr is one tag attribute; Val is unescaped only of quotes, not entities.
type Attr struct {
	Key, Val string
}

// Token is one raw HTML token with its byte span in the source.
type Token struct {
	Kind       Kind
	Name       string // upper-cased tag name; empty for Text/Comment/Doctype
	Attrs      []Attr // lower-cased keys, in source order
	Start, End int    // half-open byte range in the source
}

// Attr returns the value of the named attribute (lower-case key) and
// whether it is present.
func (t Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// isRawText reports whether the upper-cased tag name opens a raw-text
// element (SCRIPT, STYLE, TEXTAREA, TITLE), which swallows everything until
// its matching end tag. Scan and the Streamer both ask it on every start
// tag, so it switches on the length before comparing any bytes.
func isRawText[T string | []byte](name T) bool {
	switch len(name) {
	case 5:
		return string(name) == "STYLE" || string(name) == "TITLE"
	case 6:
		return string(name) == "SCRIPT"
	case 8:
		return string(name) == "TEXTAREA"
	}
	return false
}

// Scan tokenizes the page. It always succeeds; malformed markup degrades to
// text tokens.
func Scan(html string) []Token {
	var out []Token
	i := 0
	n := len(html)
	textStart := -1
	flushText := func(end int) {
		if textStart >= 0 && end > textStart {
			if strings.TrimSpace(html[textStart:end]) != "" {
				out = append(out, Token{Kind: Text, Start: textStart, End: end})
			}
		}
		textStart = -1
	}
	for i < n {
		c := html[i]
		if c != '<' {
			if textStart < 0 {
				textStart = i
			}
			i++
			continue
		}
		// Comment?
		if strings.HasPrefix(html[i:], "<!--") {
			flushText(i)
			end := strings.Index(html[i+4:], "-->")
			stop := n
			if end >= 0 {
				stop = i + 4 + end + 3
			}
			out = append(out, Token{Kind: Comment, Start: i, End: stop})
			i = stop
			continue
		}
		// Doctype or CDATA or other declaration.
		if strings.HasPrefix(html[i:], "<!") {
			flushText(i)
			stop := strings.IndexByte(html[i:], '>')
			end := n
			if stop >= 0 {
				end = i + stop + 1
			}
			out = append(out, Token{Kind: Doctype, Start: i, End: end})
			i = end
			continue
		}
		// Candidate tag: must start with a letter or '/'.
		j := i + 1
		closing := false
		if j < n && html[j] == '/' {
			closing = true
			j++
		}
		if j >= n || !isAlpha(html[j]) {
			// Stray '<': treat as text.
			if textStart < 0 {
				textStart = i
			}
			i++
			continue
		}
		flushText(i)
		tok, next := scanTag(html, i, j, closing)
		out = append(out, tok)
		i = next
		// Raw-text element: consume everything up to the matching close.
		if tok.Kind == StartTag && isRawText(tok.Name) {
			// Search in place with an ASCII-only fold: a lowered copy of the
			// rest of the page per raw-text element would make Scan
			// quadratic, and strings.ToLower would rewrite invalid UTF-8
			// bytes as 3-byte replacement runes, desynchronizing offsets.
			closeSeq := []byte("</" + strings.ToLower(tok.Name))
			at := i
			for at < n && !foldHasPrefix(html[at:], closeSeq) {
				at++
			}
			if at == n {
				i = n
				continue
			}
			if strings.TrimSpace(html[i:at]) != "" {
				out = append(out, Token{Kind: Text, Start: i, End: at})
			}
			i = at
		}
	}
	flushText(n)
	return out
}

func isAlpha(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// scanTag scans a tag starting at html[start] == '<'; nameStart points at
// the first name byte.
func scanTag(html string, start, nameStart int, closing bool) (Token, int) {
	n := len(html)
	i := nameStart
	for i < n && (isAlpha(html[i]) || html[i] >= '0' && html[i] <= '9') {
		i++
	}
	name := strings.ToUpper(html[nameStart:i])
	tok := Token{Kind: StartTag, Name: name, Start: start}
	if closing {
		tok.Kind = EndTag
	}
	// Attributes.
	for i < n {
		for i < n && isSpace(html[i]) {
			i++
		}
		if i >= n {
			break
		}
		if html[i] == '>' {
			i++
			break
		}
		if html[i] == '/' && i+1 < n && html[i+1] == '>' {
			if tok.Kind == StartTag {
				tok.Kind = SelfClosingTag
			}
			i += 2
			break
		}
		if html[i] == '/' {
			// A stray '/' not followed by '>' (e.g. a truncated "</p/" at
			// end of input): skip it, or the loop below makes no progress.
			i++
			continue
		}
		// Attribute name.
		ks := i
		for i < n && html[i] != '=' && html[i] != '>' && html[i] != '/' && !isSpace(html[i]) {
			i++
		}
		key := strings.ToLower(html[ks:i])
		val := ""
		for i < n && isSpace(html[i]) {
			i++
		}
		if i < n && html[i] == '=' {
			i++
			for i < n && isSpace(html[i]) {
				i++
			}
			if i < n && (html[i] == '"' || html[i] == '\'') {
				q := html[i]
				i++
				vs := i
				for i < n && html[i] != q {
					i++
				}
				val = html[vs:i]
				if i < n {
					i++
				}
			} else {
				vs := i
				for i < n && !isSpace(html[i]) && html[i] != '>' {
					i++
				}
				val = html[vs:i]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, Attr{Key: key, Val: val})
		}
	}
	tok.End = i
	return tok, i
}

// Span is a byte range of the source page.
type Span struct{ Start, End int }

// Mapper converts raw tokens into the symbol-string abstraction over a
// shared, growing symbol table. Training and refresh use it through Map,
// which interns; StreamSym is its lookup that never interns. Serving
// resolves against a Resolver frozen from the Mapper over one wrapper's Σ
// instead, so no serving path takes the table's lock. The zero value is not usable;
// construct with NewMapper.
type Mapper struct {
	tab *symtab.Table
	// KeepEndTags emits "/FORM"-style symbols for end tags (the paper's
	// representation keeps them).
	KeepEndTags bool
	// KeepText emits a single #text pseudo-symbol for every text run; off by
	// default, matching the paper's "contents … of no interest" abstraction.
	KeepText bool
	// AttrKeys refines tag symbols with the listed attribute values, e.g.
	// with AttrKeys = ["type"], <input type="radio"> becomes the symbol
	// INPUT[type=radio]. This realizes the paper's remark that "it is easy
	// to enrich this model to take the tag attributes into account".
	AttrKeys []string
	// Skip lists upper-case tag names to drop entirely (e.g. BR, HR).
	Skip map[string]bool

	// endBuf is StreamSym's end-tag scratch ("/NAME") and frozen its
	// resolver over the whole table. They make StreamSym single-goroutine
	// state, unlike Map; StreamSym callers hold one Mapper per goroutine.
	endBuf []byte
	frozen *Resolver
}

// NewMapper returns a Mapper with the paper's defaults: end tags kept, text
// dropped, no attribute refinement.
func NewMapper(tab *symtab.Table) *Mapper {
	return &Mapper{tab: tab, KeepEndTags: true}
}

// TextSymbolName is the pseudo-token name used when KeepText is set.
const TextSymbolName = "#text"

// Document is a tokenized page: the symbol string plus a parallel span
// array mapping each symbol back to the page source.
type Document struct {
	HTML  string
	Syms  []symtab.Symbol
	Spans []Span
}

// Map tokenizes html with a Streamer and converts it to a Document,
// interning every name it meets. Training and refresh use it: the names it
// interns widen Σ. The end-tag scratch is local to the call, so one Mapper
// serves concurrent calls.
func (m *Mapper) Map(html string) Document {
	var end []byte
	return tokenize(html, m.streamer, func(t *RawToken) (symtab.Symbol, bool) {
		return m.resolve(t, true, &end)
	})
}

// streamer returns a streamer configured as Resolver.Streamer configures
// one for the mapper's settings.
func (m *Mapper) streamer(emit func(*RawToken)) *Streamer {
	return newStreamer(emit, len(m.AttrKeys) > 0, m.KeepText)
}

// tokenize feeds html in one chunk to the streamer newStreamer builds and
// keeps each token sym does not drop.
func tokenize(html string, newStreamer func(func(*RawToken)) *Streamer, sym func(*RawToken) (symtab.Symbol, bool)) Document {
	doc := Document{HTML: html}
	s := newStreamer(func(t *RawToken) {
		if sym, ok := sym(t); ok {
			doc.Syms = append(doc.Syms, sym)
			doc.Spans = append(doc.Spans, Span{t.Start, t.End})
		}
	})
	s.Feed([]byte(html))
	s.Close()
	return doc
}

// refinedName is a start tag's symbol name under AttrKeys: the tag name,
// followed by the sorted key=value pairs of the listed attributes it
// carries, or the bare name when it carries none of them.
func refinedName(name string, attrs []Attr, keys []string) string {
	var parts []string
	for _, k := range keys {
		for _, a := range attrs {
			if a.Key == k {
				parts = append(parts, k+"="+a.Val)
				break
			}
		}
	}
	if len(parts) == 0 {
		return name
	}
	sort.Strings(parts)
	return name + "[" + strings.Join(parts, " ") + "]"
}

// Alphabet returns the alphabet of the document's symbols.
func (d Document) Alphabet() symtab.Alphabet {
	return symtab.NewAlphabet(d.Syms...)
}

// SpanOf returns the source region of token index i.
func (d Document) SpanOf(i int) Span { return d.Spans[i] }

// Source returns the page text of token index i.
func (d Document) Source(i int) string {
	s := d.Spans[i]
	return d.HTML[s.Start:s.End]
}

// Find returns the index of the n-th (0-based) occurrence of the symbol in
// the document, or -1.
func (d Document) Find(sym symtab.Symbol, n int) int {
	seen := 0
	for i, s := range d.Syms {
		if s == sym {
			if seen == n {
				return i
			}
			seen++
		}
	}
	return -1
}
