package symtab

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternStable(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("FORM")
	b := tab.Intern("INPUT")
	if a == b {
		t.Fatalf("distinct names got same symbol %d", a)
	}
	if got := tab.Intern("FORM"); got != a {
		t.Errorf("re-intern FORM = %d, want %d", got, a)
	}
	if got := tab.Name(a); got != "FORM" {
		t.Errorf("Name(%d) = %q, want FORM", a, got)
	}
	if got := tab.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestInternDenseIDs(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 100; i++ {
		s := tab.Intern(fmt.Sprintf("tok%d", i))
		if int(s) != i {
			t.Fatalf("Intern #%d = %d, want dense id %d", i, s, i)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	tab := NewTable()
	if got := tab.Lookup("nope"); got != None {
		t.Errorf("Lookup missing = %d, want None", got)
	}
	tab.Intern("yes")
	if got := tab.Lookup("yes"); got != 0 {
		t.Errorf("Lookup yes = %d, want 0", got)
	}
}

func TestNamePanicsOutOfRange(t *testing.T) {
	tab := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("Name on empty table did not panic")
		}
	}()
	tab.Name(0)
}

func TestConcurrentIntern(t *testing.T) {
	tab := NewTable()
	const goroutines = 16
	const names = 64
	var wg sync.WaitGroup
	results := make([][]Symbol, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Symbol, names)
			for i := 0; i < names; i++ {
				out[i] = tab.Intern(fmt.Sprintf("n%d", i))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	if tab.Len() != names {
		t.Fatalf("Len = %d, want %d", tab.Len(), names)
	}
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d interned n%d as %d; goroutine 0 got %d",
					g, i, results[g][i], results[0][i])
			}
		}
	}
}

func TestCloneKeepsIDs(t *testing.T) {
	tab := NewTable()
	syms := tab.InternAll("P", "H1", "/H1")
	clone := tab.Clone()
	if !clone.EqualNames(tab) {
		t.Fatalf("clone names %v, want %v", clone.Names(), tab.Names())
	}
	for i, n := range []string{"P", "H1", "/H1"} {
		if got := clone.Lookup(n); got != syms[i] {
			t.Errorf("clone Lookup(%q) = %d, want %d", n, got, syms[i])
		}
	}
	if got := clone.Intern("BLINK"); got != 3 {
		t.Errorf("clone Intern(BLINK) = %d, want the next id 3", got)
	}
	if tab.Len() != 3 || tab.Lookup("BLINK") != None {
		t.Errorf("interning into the clone changed the original: %v", tab.Names())
	}
	tab.Intern("MARQUEE")
	if clone.Lookup("MARQUEE") != None {
		t.Errorf("interning into the original changed the clone: %v", clone.Names())
	}
}

func TestStringOfSymbols(t *testing.T) {
	tab := NewTable()
	syms := tab.InternAll("P", "H1", "/H1")
	if got := tab.String(syms); got != "P H1 /H1" {
		t.Errorf("String = %q", got)
	}
	if got := tab.String(nil); got != "" {
		t.Errorf("String(nil) = %q, want empty", got)
	}
}

func TestAlphabetBasics(t *testing.T) {
	a := NewAlphabet(3, 1, 2, 1, 3)
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", a.Len())
	}
	want := []Symbol{1, 2, 3}
	got := a.Symbols()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Symbols = %v, want %v", got, want)
		}
	}
	if !a.Contains(2) || a.Contains(0) || a.Contains(4) {
		t.Error("Contains wrong")
	}
	if a.Max() != 3 {
		t.Errorf("Max = %d", a.Max())
	}
	if NewAlphabet().Max() != None {
		t.Error("empty Max != None")
	}
	if !NewAlphabet().IsEmpty() || a.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestAlphabetSetOps(t *testing.T) {
	a := NewAlphabet(1, 2, 3)
	b := NewAlphabet(2, 3, 4)
	if got := a.Union(b); !got.Equal(NewAlphabet(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got.Symbols())
	}
	if got := a.Intersect(b); !got.Equal(NewAlphabet(2, 3)) {
		t.Errorf("Intersect = %v", got.Symbols())
	}
	if got := a.Minus(b); !got.Equal(NewAlphabet(1)) {
		t.Errorf("Minus = %v", got.Symbols())
	}
	if got := a.Without(2); !got.Equal(NewAlphabet(1, 3)) {
		t.Errorf("Without = %v", got.Symbols())
	}
	if got := a.Without(9); !got.Equal(a) {
		t.Errorf("Without absent changed set: %v", got.Symbols())
	}
	if got := a.With(0); !got.Equal(NewAlphabet(0, 1, 2, 3)) {
		t.Errorf("With = %v", got.Symbols())
	}
	if got := a.With(2); !got.Equal(a) {
		t.Errorf("With present changed set: %v", got.Symbols())
	}
	if !NewAlphabet(1, 2).SubsetOf(a) || a.SubsetOf(NewAlphabet(1, 2)) {
		t.Error("SubsetOf wrong")
	}
}

func TestAlphabetFormat(t *testing.T) {
	tab := NewTable()
	p := tab.Intern("p")
	q := tab.Intern("q")
	a := NewAlphabet(q, p)
	if got := a.Format(tab); got != "{p, q}" {
		t.Errorf("Format = %q", got)
	}
	if got := NewAlphabet().Format(tab); got != "{}" {
		t.Errorf("Format empty = %q", got)
	}
}

// Property: union is commutative, associative, idempotent; De Morgan-ish
// interplay between Minus and Intersect on random small sets.
func TestAlphabetProperties(t *testing.T) {
	mk := func(bits uint16) Alphabet {
		var syms []Symbol
		for i := 0; i < 16; i++ {
			if bits&(1<<i) != 0 {
				syms = append(syms, Symbol(i))
			}
		}
		return NewAlphabet(syms...)
	}
	comm := func(x, y uint16) bool {
		return mk(x).Union(mk(y)).Equal(mk(y).Union(mk(x)))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(x, y, z uint16) bool {
		a, b, c := mk(x), mk(y), mk(z)
		return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	// a − b = a ∩ (a − b); and (a−b) ∩ b = ∅
	minus := func(x, y uint16) bool {
		a, b := mk(x), mk(y)
		d := a.Minus(b)
		return d.SubsetOf(a) && d.Intersect(b).IsEmpty() && mk(x&^y).Equal(d)
	}
	if err := quick.Check(minus, nil); err != nil {
		t.Error(err)
	}
}

// TestAlphabetMatchesSortDedup: NewAlphabet over any symbol list (unsorted,
// with duplicates) and Union's merge must equal sorting and deduplicating
// the concatenated input, and At must walk the same symbols. With and Minus
// must agree with the same reference.
func TestAlphabetMatchesSortDedup(t *testing.T) {
	ref := func(syms []Symbol) []Symbol {
		out := slices.Clone(syms)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return slices.Compact(out)
	}
	symbols := func(a Alphabet) []Symbol {
		out := make([]Symbol, a.Len())
		for i := range out {
			out[i] = a.At(i)
		}
		return out
	}
	check := func(x, y []int8) bool {
		xs, ys := make([]Symbol, len(x)), make([]Symbol, len(y))
		for i, v := range x {
			xs[i] = Symbol(v)
		}
		for i, v := range y {
			ys[i] = Symbol(v)
		}
		a, b := NewAlphabet(xs...), NewAlphabet(ys...)
		u := a.Union(b)
		var minus []Symbol
		for _, s := range ref(xs) {
			if !slices.Contains(ys, s) {
				minus = append(minus, s)
			}
		}
		with := a
		for _, s := range ys {
			with = with.With(s)
		}
		return slices.Equal(a.Symbols(), ref(xs)) && slices.Equal(symbols(a), ref(xs)) &&
			slices.Equal(u.Symbols(), ref(append(slices.Clone(xs), ys...))) &&
			u.Equal(b.Union(a)) && u.Equal(with) &&
			slices.Equal(a.Minus(b).Symbols(), append([]Symbol{}, minus...))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
