package htmltok

import "resilex/internal/symtab"

// mapReference is the differential reference for Map and Resolve: the same
// mapping computed from Scan's tokens instead of the Streamer's, with its own
// dispatch on token kinds instead of resolve's. Fresh names are interned when
// intern is set and resolve to symtab.None otherwise.
func mapReference(m *Mapper, html string, intern bool) Document {
	sym := func(name string) symtab.Symbol {
		if intern {
			return m.tab.Intern(name)
		}
		return m.tab.Lookup(name)
	}
	doc := Document{HTML: html}
	for _, t := range Scan(html) {
		switch t.Kind {
		case Comment, Doctype:
			continue
		case Text:
			if !m.KeepText {
				continue
			}
			doc.Syms = append(doc.Syms, sym(TextSymbolName))
			doc.Spans = append(doc.Spans, Span{t.Start, t.End})
		case EndTag:
			if !m.KeepEndTags || m.Skip[t.Name] {
				continue
			}
			doc.Syms = append(doc.Syms, sym("/"+t.Name))
			doc.Spans = append(doc.Spans, Span{t.Start, t.End})
		case StartTag, SelfClosingTag:
			if m.Skip[t.Name] {
				continue
			}
			doc.Syms = append(doc.Syms, sym(m.symbolName(t)))
			doc.Spans = append(doc.Spans, Span{t.Start, t.End})
		}
	}
	return doc
}
