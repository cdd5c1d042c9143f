package htmltok

import (
	"bytes"

	"resilex/internal/symtab"
)

// RawToken is one token produced by a Streamer. The streamer owns the token
// and delivers a pointer to it; the pointer, and the Name and Bytes slices,
// which alias the streamer's internal buffer (or the chunk being fed), are
// valid only for the duration of the emit callback — callers that need them
// longer must copy. Start/End are absolute byte offsets into the whole
// stream.
type RawToken struct {
	Kind Kind
	// Name holds the upper-cased tag name bytes; nil for Text, Comment and
	// Doctype tokens.
	Name []byte
	// Bytes is the raw source of the token.
	Bytes []byte
	// Attrs is populated only when the streamer's ParseAttrs is set (it
	// allocates; only wrappers with attribute-refined symbols need it).
	Attrs      []Attr
	Start, End int
}

// streamState identifies the construct the pending (carried) bytes begin
// with. The carry buffer always starts at the first byte of that construct.
type streamState int

const (
	stNone    streamState = iota // no pending construct
	stLt                         // a '<' with too little lookahead to classify
	stText                       // a text run (may contain stray '<')
	stComment                    // "<!--" without its "-->" yet
	stDoctype                    // "<!" declaration without its '>' yet
	stTag                        // a tag without its structural '>' yet
	stRaw                        // raw-text content awaiting its close tag
)

// Streamer is the chunked, resumable counterpart of Scan: bytes arrive in
// arbitrary slices via Feed, tokens are delivered to the emit callback, by
// pointer to the one RawToken the streamer owns, in exactly the order — and
// with exactly the spans — Scan would produce for the concatenated input
// (FuzzStreamerChunks enforces this byte-for-byte).
// Constructs that straddle a chunk boundary are carried over and resumed, so
// no token, tag name or multi-byte UTF-8 sequence is ever split by chunking.
//
// Memory is O(largest single token): only the current incomplete construct
// is buffered, never the document. A warm Streamer (buffers grown, Reset
// between documents) does not allocate on Feed unless ParseAttrs is set.
// A Streamer is single-goroutine state; pool and Reset to reuse.
type Streamer struct {
	// ParseAttrs enables attribute parsing on tag tokens. It allocates per
	// tag; leave it off unless the mapper refines symbols with AttrKeys.
	ParseAttrs bool

	emit  func(*RawToken)
	tok   RawToken // the token being delivered; see RawToken
	carry []byte   // pending construct bytes, starting at its first byte
	base  int      // absolute stream offset of the work buffer's first byte
	state streamState
	scan  int // resume offset within the pending construct (state-specific)

	rawSeq  []byte // lower-cased close sequence, e.g. "</script"
	nameBuf []byte // upper-cased tag-name scratch, aliased by RawToken.Name

	chunks  int64
	carries int64
}

// NewStreamerPtr returns a streamer delivering each token to emit by
// pointer; the pointer is valid only during the call (see RawToken).
func NewStreamerPtr(emit func(*RawToken)) *Streamer {
	return &Streamer{emit: emit}
}

// NewStreamer returns a streamer delivering a copy of each token to emit.
func NewStreamer(emit func(RawToken)) *Streamer {
	return NewStreamerPtr(func(t *RawToken) { emit(*t) })
}

// Reset prepares the streamer for a new document, keeping grown buffers.
func (s *Streamer) Reset() {
	s.carry = s.carry[:0]
	s.base = 0
	s.state = stNone
	s.scan = 0
}

// Stats reports the number of chunks fed and of chunk boundaries that
// landed inside a token (resumed-construct carries) since construction.
func (s *Streamer) Stats() (chunks, carries int64) {
	return s.chunks, s.carries
}

// Feed consumes one chunk. Complete tokens are emitted during the call; an
// incomplete trailing construct is carried into the next Feed or Close. The
// chunk is not retained — the caller may reuse it after Feed returns.
func (s *Streamer) Feed(chunk []byte) {
	s.chunks++
	b := chunk
	if len(s.carry) > 0 {
		s.carries++
		s.carry = append(s.carry, chunk...)
		b = s.carry
	}
	consumed := s.process(b, false)
	rest := b[consumed:]
	if len(s.carry) > 0 {
		// The carry was the work buffer: slide the remainder to its front
		// (dst precedes src, so the overlapping copy is safe).
		n := copy(s.carry, rest)
		s.carry = s.carry[:n]
	} else if len(rest) > 0 {
		s.carry = append(s.carry[:0], rest...)
	}
	s.base += consumed
}

// Close signals end of input, flushing any pending construct exactly as
// Scan treats end of document (trailing text flushes, unterminated comments
// and tags extend to EOF, unterminated raw-text content is discarded).
func (s *Streamer) Close() {
	if len(s.carry) > 0 {
		s.base += s.process(s.carry, true)
		s.carry = s.carry[:0]
	}
	s.state = stNone
	s.scan = 0
}

// classification of a '<' byte.
type ltClass int

const (
	clStray ltClass = iota // not a construct: the '<' is text
	clComment
	clDoctype
	clTag      // "<name"
	clTagClose // "</name"
)

// classifyLt decides what the '<' at b[i] begins, mirroring Scan's prefix
// tests. needMore means the buffer ends before the decision is possible
// (never reported at EOF, where Scan's answer is final).
func classifyLt(b []byte, i int, atEOF bool) (ltClass, bool) {
	n := len(b)
	if i+1 >= n {
		if !atEOF {
			return 0, true
		}
		return clStray, false
	}
	switch c := b[i+1]; {
	case c == '!':
		if n-i >= 4 {
			if b[i+2] == '-' && b[i+3] == '-' {
				return clComment, false
			}
			return clDoctype, false
		}
		if n-i == 3 && b[i+2] != '-' {
			return clDoctype, false // "<!x" can no longer become "<!--"
		}
		if !atEOF {
			return 0, true // "<!" or "<!-": still a possible comment
		}
		return clDoctype, false
	case c == '/':
		if i+2 >= n {
			if !atEOF {
				return 0, true
			}
			return clStray, false
		}
		if isAlpha(b[i+2]) {
			return clTagClose, false
		}
		return clStray, false
	case isAlpha(c):
		return clTag, false
	}
	return clStray, false
}

var commentEnd = []byte("-->")

// process scans the work buffer, emitting every construct that completes
// within it, and returns the number of bytes consumed. The unconsumed tail
// (the pending construct) must be carried into the next call; s.state and
// s.scan record how to resume it without rescanning completed work.
func (s *Streamer) process(b []byte, atEOF bool) int {
	n := len(b)
	start := 0 // first byte of the pending construct; == bytes consumed
	scan := s.scan
	state := s.state
	save := func(st streamState, sc int) {
		s.state = st
		s.scan = sc
	}
	for {
		switch state {
		case stNone:
			if start >= n {
				save(stNone, 0)
				return start
			}
			if b[start] != '<' {
				state, scan = stText, 1
				continue
			}
			cl, need := classifyLt(b, start, atEOF)
			if need {
				save(stLt, 0)
				return start
			}
			switch cl {
			case clComment:
				state, scan = stComment, 4
			case clDoctype:
				state, scan = stDoctype, 2
			case clTag, clTagClose:
				state, scan = stTag, 0
			default: // clStray: the '<' joins a text run
				state, scan = stText, 1
			}
		case stLt:
			// More bytes (or EOF) arrived: re-classify the pending '<'.
			state, scan = stNone, 0
		case stText:
			i := start + scan
			for i < n {
				if b[i] != '<' {
					i++
					continue
				}
				cl, need := classifyLt(b, i, atEOF)
				if need {
					save(stText, i-start)
					return start
				}
				if cl == clStray {
					i++
					continue
				}
				break
			}
			if i >= n && !atEOF {
				save(stText, n-start)
				return start
			}
			// Flush the run [start, i): a construct begins at i, or EOF.
			if len(bytes.TrimSpace(b[start:i])) != 0 {
				s.send(Text, nil, b, start, i, nil)
			}
			start, state, scan = i, stNone, 0
		case stComment:
			from := start + scan
			if idx := bytes.Index(b[from:n], commentEnd); idx >= 0 {
				end := from + idx + 3
				s.send(Comment, nil, b, start, end, nil)
				start, state, scan = end, stNone, 0
				continue
			}
			if atEOF {
				s.send(Comment, nil, b, start, n, nil)
				start, state, scan = n, stNone, 0
				continue
			}
			// Resume past everything scanned, minus the possible "--" of a
			// split "-->" (never back into the opening "<!--").
			sc := n - start - 2
			if sc < 4 {
				sc = 4
			}
			save(stComment, sc)
			return start
		case stDoctype:
			from := start + scan
			if idx := bytes.IndexByte(b[from:n], '>'); idx >= 0 {
				end := from + idx + 1
				s.send(Doctype, nil, b, start, end, nil)
				start, state, scan = end, stNone, 0
				continue
			}
			if atEOF {
				s.send(Doctype, nil, b, start, n, nil)
				start, state, scan = n, stNone, 0
				continue
			}
			save(stDoctype, n-start)
			return start
		case stTag:
			closing := b[start+1] == '/'
			nameStart := start + 1
			if closing {
				nameStart++
			}
			end, kind, nameEnd, ok := streamTag(b, nameStart, closing)
			if !ok && !atEOF {
				// Tags are small; re-scanning from the tag start on resume
				// is cheaper than carrying the mid-attribute quote state.
				save(stTag, 0)
				return start
			}
			s.nameBuf = appendUpperASCII(s.nameBuf[:0], b[nameStart:nameEnd])
			var attrs []Attr
			if s.ParseAttrs {
				tok, _ := scanTag(string(b[start:end]), 0, nameStart-start, closing)
				attrs, kind = tok.Attrs, tok.Kind
			}
			s.send(kind, s.nameBuf, b, start, end, attrs)
			start, state, scan = end, stNone, 0
			if kind == StartTag && isRawText(s.nameBuf) {
				s.rawSeq = append(s.rawSeq[:0], '<', '/')
				for _, c := range b[nameStart:nameEnd] {
					if 'A' <= c && c <= 'Z' {
						c += 'a' - 'A'
					}
					s.rawSeq = append(s.rawSeq, c)
				}
				state = stRaw
			}
		case stRaw:
			seq := s.rawSeq
			found := -1
			for i := start + scan; i+len(seq) <= n; i++ {
				if foldHasPrefix(b[i:], seq) {
					found = i
					break
				}
			}
			if found >= 0 {
				if len(bytes.TrimSpace(b[start:found])) != 0 {
					s.send(Text, nil, b, start, found, nil)
				}
				// The close tag itself goes through the normal tag path.
				start, state, scan = found, stNone, 0
				continue
			}
			if atEOF {
				// Scan discards unterminated raw-text content.
				save(stNone, 0)
				return n
			}
			sc := n - start - len(seq) + 1
			if sc < 0 {
				sc = 0
			}
			save(stRaw, sc)
			return start
		}
	}
}

// send fills the streamer's token field by field (a composite-literal
// assignment would build the 96-byte token on the stack and copy it) and
// hands it to emit.
func (s *Streamer) send(kind Kind, name, b []byte, start, end int, attrs []Attr) {
	t := &s.tok
	t.Kind = kind
	t.Name = name
	t.Bytes = b[start:end]
	t.Attrs = attrs
	t.Start = s.base + start
	t.End = s.base + end
	s.emit(t)
}

// streamTag walks a tag over bytes, replicating scanTag's control flow
// without building strings. ok=false means the buffer ended before the
// tag's structural '>' (the caller carries it; at EOF the partial walk is
// final, exactly as scanTag treats end of input).
func streamTag(b []byte, nameStart int, closing bool) (end int, kind Kind, nameEnd int, ok bool) {
	n := len(b)
	i := nameStart
	for i < n && (isAlpha(b[i]) || b[i] >= '0' && b[i] <= '9') {
		i++
	}
	nameEnd = i
	kind = StartTag
	if closing {
		kind = EndTag
	}
	for i < n {
		for i < n && isSpace(b[i]) {
			i++
		}
		if i >= n {
			break
		}
		if b[i] == '>' {
			i++
			ok = true
			break
		}
		if b[i] == '/' && i+1 < n && b[i+1] == '>' {
			if kind == StartTag {
				kind = SelfClosingTag
			}
			i += 2
			ok = true
			break
		}
		if b[i] == '/' {
			i++
			continue
		}
		for i < n && b[i] != '=' && b[i] != '>' && b[i] != '/' && !isSpace(b[i]) {
			i++
		}
		for i < n && isSpace(b[i]) {
			i++
		}
		if i < n && b[i] == '=' {
			i++
			for i < n && isSpace(b[i]) {
				i++
			}
			if i < n && (b[i] == '"' || b[i] == '\'') {
				q := b[i]
				i++
				for i < n && b[i] != q {
					i++
				}
				if i < n {
					i++
				}
			} else {
				for i < n && !isSpace(b[i]) && b[i] != '>' {
					i++
				}
			}
		}
	}
	return i, kind, nameEnd, ok
}

// appendUpperASCII appends src to dst upper-casing ASCII letters, leaving
// every other byte (including invalid UTF-8) untouched.
func appendUpperASCII(dst, src []byte) []byte {
	for _, c := range src {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// foldHasPrefix reports whether ASCII-lowercased b starts with seq (seq is
// already lower-case). It folds byte by byte, leaving every other byte
// (including invalid UTF-8) as it is, so a match at b[i:] is one at the same
// offset of the source.
func foldHasPrefix[T string | []byte](b T, seq []byte) bool {
	if len(b) < len(seq) {
		return false
	}
	for i, c := range seq {
		x := b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if x != c {
			return false
		}
	}
	return true
}

// StreamSym resolves one streamed token to the symbol Map would emit for
// it, without mutating the symbol table: where Map interns fresh names,
// StreamSym reports them as symtab.None. ok=false means Map would drop the
// token entirely (comments, doctype, skipped tags, text with KeepText off).
// The distinction matters to matchers: a dropped token does not occupy a
// position, while a None symbol does — and kills every candidate whose
// suffix spans it, which is extraction-equivalent to Map's freshly interned
// (hence out-of-Σ) symbol. Map calls the same code on the tokens of its own
// Streamer.
//
// StreamSym looks every name up in the shared table, under the table's
// lock; no serving route calls it. Serving resolves with a Resolver frozen
// over the wrapper's Σ, which agrees with StreamSym on every name in Σ.
// Without AttrKeys the lookup does not allocate (the byte-to-string map
// indexes are elided); with AttrKeys it builds the refined symbol name and
// allocates, matching the ParseAttrs cost on the streamer.
func (m *Mapper) StreamSym(t RawToken) (sym symtab.Symbol, ok bool) {
	return m.resolve(&t, false, &m.endBuf)
}

// resolve maps one streamed token to its symbol, or reports ok=false for a
// token the mapping drops. A name the table lacks is interned when intern is
// set and resolves to symtab.None otherwise. end is the caller's "/NAME"
// scratch for end tags.
func (m *Mapper) resolve(t *RawToken, intern bool, end *[]byte) (sym symtab.Symbol, ok bool) {
	name := t.Name
	switch t.Kind {
	case Comment, Doctype:
		return symtab.None, false
	case Text:
		if !m.KeepText {
			return symtab.None, false
		}
		name = []byte(TextSymbolName)
	case EndTag:
		if !m.KeepEndTags || m.Skip[string(t.Name)] {
			return symtab.None, false
		}
		*end = append(append((*end)[:0], '/'), t.Name...)
		name = *end
	default: // StartTag, SelfClosingTag
		if m.Skip[string(t.Name)] {
			return symtab.None, false
		}
		if len(m.AttrKeys) > 0 {
			name = []byte(refinedName(string(t.Name), t.Attrs, m.AttrKeys))
		}
	}
	if sym = m.tab.LookupBytes(name); sym == symtab.None && intern {
		sym = m.tab.Intern(string(name))
	}
	return sym, true
}
