package serve

import (
	"encoding/json"
	"unicode/utf16"
	"unicode/utf8"

	"resilex/internal/wrapper"
)

// DecodeExtractRequest decodes a POST /extract body into its documents.
//
// The one shape clients send, {"docs":[{"key":…,"html":…},…]} with JSON
// whitespace anywhere between tokens and each document's two members once
// each in either order, takes a one-pass decoder that unescapes every string
// into one arena. Every other body goes untouched to json.Unmarshal. The
// fast path declines exactly where encoding/json would fold, replace or
// reject: escaped, case-folded, unknown or duplicate member names, null or
// non-string values, a missing member, raw control bytes, invalid UTF-8,
// lone surrogates, trailing data and any syntax error. So every body yields
// the documents, or the error, that json.Unmarshal gives it.
//
// The keys and pages of a fast-decoded batch are substrings of one string:
// keeping any one of them keeps the whole batch's text alive.
func DecodeExtractRequest(body []byte) ([]wrapper.BatchDoc, error) {
	if docs, ok := decodeFast(body); ok {
		return docs, nil
	}
	var req extractRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Docs, nil
}

// docSpan locates one document's key and page in the decoder's arena.
type docSpan struct{ key, html [2]int }

// decodeFast is DecodeExtractRequest's fast path; false declines the body.
// It never writes to body.
func decodeFast(body []byte) ([]wrapper.BatchDoc, bool) {
	d := fastDecoder{b: body}
	if !d.lit(`{`) || !d.lit(`"docs"`) || !d.lit(`:`) || !d.lit(`[`) {
		return nil, false
	}
	// Decoded text is never longer than its encoding, so the arena never
	// grows; the first 16 spans live on the stack.
	d.arena = make([]byte, 0, len(body))
	var stack [16]docSpan
	spans := stack[:0]
	if !d.lit(`]`) {
		for {
			sp, ok := d.doc()
			if !ok {
				return nil, false
			}
			spans = append(spans, sp)
			if d.lit(`]`) {
				break
			}
			if !d.lit(`,`) {
				return nil, false
			}
		}
	}
	if !d.lit(`}`) {
		return nil, false
	}
	if d.ws(); d.i != len(body) {
		return nil, false
	}
	text := string(d.arena)
	docs := make([]wrapper.BatchDoc, len(spans))
	for j, sp := range spans {
		docs[j] = wrapper.BatchDoc{Key: text[sp.key[0]:sp.key[1]], HTML: text[sp.html[0]:sp.html[1]]}
	}
	return docs, true
}

// fastDecoder is the fast path's state: the body, the read offset into it,
// and the arena every string value is unescaped into.
type fastDecoder struct {
	b     []byte
	i     int
	arena []byte
}

// ws skips JSON whitespace.
func (d *fastDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// lit skips whitespace, then consumes s if the body continues with it. A
// member name passed as s therefore matches only when spelled exactly and
// unescaped.
func (d *fastDecoder) lit(s string) bool {
	d.ws()
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// doc decodes one {"key":…,"html":…} object.
func (d *fastDecoder) doc() (docSpan, bool) {
	var sp docSpan
	var seen uint8
	if !d.lit(`{`) {
		return sp, false
	}
	for n := 0; n < 2; n++ {
		if n > 0 && !d.lit(`,`) {
			return sp, false
		}
		dst, bit := &sp.key, uint8(1)
		if !d.lit(`"key"`) {
			if !d.lit(`"html"`) {
				return sp, false
			}
			dst, bit = &sp.html, 2
		}
		if seen&bit != 0 || !d.lit(`:`) || !d.lit(`"`) {
			return sp, false
		}
		seen |= bit
		start := len(d.arena)
		if !d.str() {
			return sp, false
		}
		*dst = [2]int{start, len(d.arena)}
	}
	return sp, d.lit(`}`)
}

// plain marks the bytes a string copies through unchecked: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str unescapes onto the arena the rest of a string whose opening quote has
// been consumed, declining a raw control byte, invalid UTF-8, a malformed
// escape or a lone surrogate.
func (d *fastDecoder) str() bool {
	b, i, a := d.b, d.i, d.arena
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			a = append(a, c)
			i++
		case c == '"':
			d.arena = a
			d.i = i + 1
			return true
		case c == '\\':
			var n int
			if a, n = escape(a, b[i:]); n == 0 {
				return false
			}
			i += n
		case c < ' ':
			return false
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return false
			}
			a = append(a, b[i:i+n]...)
			i += n
		}
	}
	return false
}

// unescaped maps the letter of each one-character escape to its byte.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape appends the character of the escape sequence that e starts with
// and returns the sequence's length, 0 for a malformed one. A \u escape of a
// surrogate must be the high half of a pair whose low half is the next \u
// escape.
func escape(a, e []byte) ([]byte, int) {
	if len(e) < 2 {
		return a, 0
	}
	if c := unescaped[e[1]]; c != 0 {
		return append(a, c), 2
	}
	if e[1] != 'u' {
		return a, 0
	}
	r, ok := hex4(e[2:])
	if !ok {
		return a, 0
	}
	if !utf16.IsSurrogate(r) {
		return utf8.AppendRune(a, r), 6
	}
	if len(e) < 12 || e[6] != '\\' || e[7] != 'u' {
		return a, 0
	}
	lo, ok := hex4(e[8:])
	if !ok {
		return a, 0
	}
	if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
		return a, 0
	}
	return utf8.AppendRune(a, r), 12
}

// unhex maps each hex digit to its value and every other byte to -1.
var unhex = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()

// hex4 parses the four hex digits b starts with. A -1 digit keeps the sign
// bit through the shifts, so any non-digit makes the value negative.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	r := rune(unhex[b[0]])<<12 | rune(unhex[b[1]])<<8 | rune(unhex[b[2]])<<4 | rune(unhex[b[3]])
	return r, r >= 0
}
