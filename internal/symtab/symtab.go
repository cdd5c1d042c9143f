// Package symtab provides interned token symbols and finite alphabets.
//
// The paper models semistructured documents as strings over a finite
// alphabet Σ of tokens (HTML tags such as FORM, /FORM, INPUT, or abstract
// letters p, q). All automata and languages in this library run over dense
// integer symbol ids produced by a Table; an explicit Alphabet accompanies
// every language because operations such as complement and Σ−p are only
// meaningful relative to a fixed Σ.
package symtab

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Symbol is a dense interned id for a token. Ids are assigned in first-seen
// order by a Table, starting at 0. The zero Symbol is a valid symbol (the
// first one interned), so code that needs a sentinel should use None.
type Symbol int32

// None is the sentinel "no symbol" value. It is never returned by Intern.
const None Symbol = -1

// Table interns token names to Symbols. A Table is safe for concurrent use.
type Table struct {
	mu    sync.RWMutex
	ids   map[string]Symbol
	names []string
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{ids: make(map[string]Symbol)}
}

// Intern returns the Symbol for name, assigning a fresh id if name has not
// been seen before.
func (t *Table) Intern(name string) Symbol {
	t.mu.RLock()
	s, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.ids[name]; ok {
		return s
	}
	s = Symbol(len(t.names))
	t.ids[name] = s
	t.names = append(t.names, name)
	return s
}

// Lookup returns the Symbol for name, or None if name was never interned.
func (t *Table) Lookup(name string) Symbol {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s, ok := t.ids[name]; ok {
		return s
	}
	return None
}

// LookupBytes is Lookup over a byte slice. It never allocates (the
// byte-to-string conversion in the map index is elided by the compiler).
// Unlike Intern it never mutates the table: unknown names report None,
// which downstream matchers treat as an out-of-Σ token. htmltok's Mapper
// looks streamed names up with it; serving routes resolve against a
// lock-free htmltok.Resolver frozen over each wrapper's Σ instead.
func (t *Table) LookupBytes(name []byte) Symbol {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s, ok := t.ids[string(name)]; ok {
		return s
	}
	return None
}

// Name returns the token name for s. It panics if s was not produced by this
// table.
func (t *Table) Name(s Symbol) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s < 0 || int(s) >= len(t.names) {
		panic(fmt.Sprintf("symtab: symbol %d out of range (table has %d symbols)", s, len(t.names)))
	}
	return t.names[s]
}

// Len reports the number of interned symbols.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Names returns the interned names in id order (a copy).
func (t *Table) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// InternAll interns every name and returns the symbols in order.
func (t *Table) InternAll(names ...string) []Symbol {
	out := make([]Symbol, len(names))
	for i, n := range names {
		out[i] = t.Intern(n)
	}
	return out
}

// String formats a string of symbols as space-separated token names.
func (t *Table) String(str []Symbol) string {
	var b strings.Builder
	for i, s := range str {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Name(s))
	}
	return b.String()
}

// Alphabet is a finite set of Symbols — the Σ of the paper. The zero value
// is the empty alphabet. Alphabets are immutable once built; all set
// operations return new values.
type Alphabet struct {
	syms []Symbol // sorted, deduplicated
}

// NewAlphabet builds an alphabet from the given symbols (duplicates allowed).
func NewAlphabet(syms ...Symbol) Alphabet {
	out := make([]Symbol, len(syms))
	copy(out, syms)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	out = dedup(out)
	return Alphabet{syms: out}
}

func dedup(sorted []Symbol) []Symbol {
	w := 0
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			sorted[w] = s
			w++
		}
	}
	return sorted[:w]
}

// Len reports |Σ|.
func (a Alphabet) Len() int { return len(a.syms) }

// IsEmpty reports whether the alphabet has no symbols.
func (a Alphabet) IsEmpty() bool { return len(a.syms) == 0 }

// Contains reports whether s ∈ Σ.
func (a Alphabet) Contains(s Symbol) bool {
	i := sort.Search(len(a.syms), func(i int) bool { return a.syms[i] >= s })
	return i < len(a.syms) && a.syms[i] == s
}

// Symbols returns the symbols in ascending order (a copy).
func (a Alphabet) Symbols() []Symbol {
	out := make([]Symbol, len(a.syms))
	copy(out, a.syms)
	return out
}

// Union returns Σ₁ ∪ Σ₂.
func (a Alphabet) Union(b Alphabet) Alphabet {
	merged := make([]Symbol, 0, len(a.syms)+len(b.syms))
	merged = append(merged, a.syms...)
	merged = append(merged, b.syms...)
	return NewAlphabet(merged...)
}

// Intersect returns Σ₁ ∩ Σ₂.
func (a Alphabet) Intersect(b Alphabet) Alphabet {
	var out []Symbol
	i, j := 0, 0
	for i < len(a.syms) && j < len(b.syms) {
		switch {
		case a.syms[i] < b.syms[j]:
			i++
		case a.syms[i] > b.syms[j]:
			j++
		default:
			out = append(out, a.syms[i])
			i++
			j++
		}
	}
	return Alphabet{syms: out}
}

// Minus returns Σ₁ − Σ₂; with b a singleton this is the paper's (Σ−p).
func (a Alphabet) Minus(b Alphabet) Alphabet {
	var out []Symbol
	for _, s := range a.syms {
		if !b.Contains(s) {
			out = append(out, s)
		}
	}
	return Alphabet{syms: out}
}

// Without returns Σ − {s}.
func (a Alphabet) Without(s Symbol) Alphabet {
	if !a.Contains(s) {
		return a
	}
	out := make([]Symbol, 0, len(a.syms)-1)
	for _, x := range a.syms {
		if x != s {
			out = append(out, x)
		}
	}
	return Alphabet{syms: out}
}

// With returns Σ ∪ {s}.
func (a Alphabet) With(s Symbol) Alphabet {
	if a.Contains(s) {
		return a
	}
	out := make([]Symbol, 0, len(a.syms)+1)
	out = append(out, a.syms...)
	out = append(out, s)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return Alphabet{syms: out}
}

// Equal reports whether two alphabets contain the same symbols.
func (a Alphabet) Equal(b Alphabet) bool {
	if len(a.syms) != len(b.syms) {
		return false
	}
	for i := range a.syms {
		if a.syms[i] != b.syms[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every symbol of a is in b.
func (a Alphabet) SubsetOf(b Alphabet) bool {
	for _, s := range a.syms {
		if !b.Contains(s) {
			return false
		}
	}
	return true
}

// Max returns the largest symbol id in the alphabet, or None if empty.
// Useful for sizing dense transition tables.
func (a Alphabet) Max() Symbol {
	if len(a.syms) == 0 {
		return None
	}
	return a.syms[len(a.syms)-1]
}

// Format renders the alphabet using the table's names, e.g. "{p, q}".
func (a Alphabet) Format(t *Table) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range a.syms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Name(s))
	}
	b.WriteByte('}')
	return b.String()
}
