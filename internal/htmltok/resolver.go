package htmltok

import "resilex/internal/symtab"

// Resolver maps streamed tokens to the symbols of one fixed alphabet Σ under
// one tokenizer configuration. It is the serving side of a Mapper: built
// once per compiled wrapper from the wrapper's own Σ (never from the shared
// table, which training and refresh keep widening), immutable afterwards,
// and so safe for any number of goroutines with no lock.
//
// A name outside Σ resolves to symtab.None. That is the paper's reading of
// a page as a word over Σ: every matcher rejects a None exactly as it
// rejects a symbol interned after the wrapper was built, so regions equal
// those of the Mapper's table-backed lookup.
//
// Every name the resolver must know sits in one open-addressed table keyed
// by the tag name as the tokenizer emits it (upper-cased): a Σ tag NAME
// fills its entry's start outcome, a Σ end tag /NAME the end outcome, a
// Skip name sets skip, and the #text pseudo-symbol and AttrKeys-refined
// names such as INPUT[type=text] take start outcomes under their own keys.
// Keys match byte for byte, so a lower-case Skip or Σ name keeps its
// case-sensitive meaning: it never matches a token.
type Resolver struct {
	slots    []resolverSlot // power-of-two length, at most half full
	keepText bool
	keepEnd  bool
	attrKeys []string
}

// resolverSlot is one table entry. A free slot has an empty name and both
// outcomes None, so a lookup that misses ends on the out-of-Σ answer.
type resolverSlot struct {
	name       string
	start, end symtab.Symbol // None where the name (or /name) is outside Σ
	skip       bool
}

// Resolver freezes the mapper's tokenizer configuration over the alphabet
// sigma, whose symbols are named in the mapper's table. It costs O(|Σ| +
// |Skip|) and reads the table only for Σ's names.
func (m *Mapper) Resolver(sigma symtab.Alphabet) *Resolver {
	size := 1
	for size < 2*(sigma.Len()+len(m.Skip)) {
		size <<= 1
	}
	r := &Resolver{
		slots:    make([]resolverSlot, size),
		keepText: m.KeepText,
		keepEnd:  m.KeepEndTags,
		attrKeys: m.AttrKeys,
	}
	for i := range r.slots {
		r.slots[i].start, r.slots[i].end = symtab.None, symtab.None
	}
	// entry claims name's slot; no token carries an empty name.
	entry := func(name string) *resolverSlot {
		if name == "" {
			return &resolverSlot{}
		}
		s := probe(r.slots, name)
		s.name = name
		return s
	}
	for _, sym := range sigma.Symbols() {
		if name := m.tab.Name(sym); len(name) > 1 && name[0] == '/' {
			entry(name[1:]).end = sym
		} else {
			entry(name).start = sym
		}
	}
	for name, skip := range m.Skip {
		if skip {
			entry(name).skip = true
		}
	}
	return r
}

// probe returns name's slot, or the free slot that ends its probe
// sequence; the table is at most half full, so there always is one.
func probe[T string | []byte](slots []resolverSlot, name T) *resolverSlot {
	h := uint32(2166136261) // 32-bit FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	mask := uint32(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := &slots[i]; s.name == string(name) || s.name == "" {
			return s
		}
	}
}

// Sym resolves one streamed token to the symbol Map would emit for it, or
// symtab.None for a name outside Σ; ok=false means Map would drop the token
// (comments, doctype, skipped tags, text with KeepText off, end tags with
// KeepEndTags off). Without AttrKeys it does not allocate; with AttrKeys it
// builds the refined name of each kept start tag, as Map does.
func (r *Resolver) Sym(t *RawToken) (sym symtab.Symbol, ok bool) {
	switch t.Kind {
	case Comment, Doctype:
		return symtab.None, false
	case Text:
		if !r.keepText {
			return symtab.None, false
		}
		return probe(r.slots, TextSymbolName).start, true
	case EndTag:
		if !r.keepEnd {
			return symtab.None, false
		}
		s := probe(r.slots, t.Name)
		return s.end, !s.skip
	}
	// StartTag, SelfClosingTag.
	s := probe(r.slots, t.Name)
	if s.skip {
		return symtab.None, false
	}
	if len(r.attrKeys) > 0 {
		// A tag carrying none of the keys keeps its bare name.
		if name := refinedName(string(t.Name), t.Attrs, r.attrKeys); len(name) != len(t.Name) {
			s = probe(r.slots, name)
		}
	}
	return s.start, true
}

// Resolve tokenizes html and resolves its tokens against Σ: the in-memory
// twin of feeding the page through a Streamer into Sym.
func (r *Resolver) Resolve(html string) Document {
	return tokenize(html, len(r.attrKeys) > 0, r.Sym)
}
