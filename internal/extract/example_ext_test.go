package extract_test

import (
	"fmt"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// A content-addressed cache compiles each distinct expression once; later
// loads of the same source — whatever the Σ-name order — are hits sharing
// one compiled artifact. Loads go through a TieredCache; a nil disk tier
// keeps it memory-only.
func ExampleCache() {
	cache := extract.NewTieredCache(extract.NewCache(64, nil), nil)
	for _, sigma := range [][]string{{"p", "q"}, {"q", "p"}, {"q", "p", "p"}} {
		if _, err := cache.Load("q* <p> .*", sigma, machine.Options{}); err != nil {
			panic(err)
		}
	}
	st := cache.Stats()
	fmt.Printf("misses=%d hits=%d entries=%d\n", st.Misses, st.Hits, st.Entries)
	// Output: misses=1 hits=2 entries=1
}

// CompileStream builds the one-pass matcher: tokens are fed one at a time
// and the split resolves online, whatever the suffix expression E2.
func ExampleExpr_CompileStream() {
	tab := symtab.NewTable()
	p, q := tab.Intern("p"), tab.Intern("q")
	x, err := extract.Parse("q* <p> q", tab, symtab.NewAlphabet(p, q), machine.Options{})
	if err != nil {
		panic(err)
	}
	sm, err := x.CompileStream()
	if err != nil {
		panic(err)
	}
	run := sm.Get(extract.FindLeftmost)
	defer sm.Put(run)
	for _, sym := range []symtab.Symbol{q, q, p, q} {
		run.Feed(sym)
	}
	fmt.Println(run.Find())
	// Output: 2 true
}
