package wrapper_test

import (
	"context"
	"fmt"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/wrapper"
)

const examplePage = `<p><h1>Virtual Supplier</h1>
<form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" name="value" data-target />
</form>`

const examplePageAlt = `<table><tr><td><h1>Virtual Supplier</h1></td></tr>
<tr><td><form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" name="value" data-target />
</form></td></tr></table>`

// exampleWrapper trains the shared two-layout wrapper the examples serve.
func exampleWrapper() *wrapper.Wrapper {
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: examplePage, Target: wrapper.TargetMarker()},
		{HTML: examplePageAlt, Target: wrapper.TargetMarker()},
	}, wrapper.Config{})
	if err != nil {
		panic(err)
	}
	return w
}

// ExtractBatch runs a mixed batch on a worker pool; results come back in
// input order whatever the scheduling.
func ExampleFleet_ExtractBatch() {
	fleet := wrapper.NewFleet()
	fleet.Add("vs", exampleWrapper())
	docs := []wrapper.BatchDoc{
		{Key: "vs", HTML: examplePage},
		{Key: "nosuch", HTML: examplePage},
		{Key: "vs", HTML: examplePageAlt},
	}
	for _, res := range fleet.ExtractBatch(context.Background(), docs, wrapper.BatchOptions{Workers: 4}) {
		fmt.Println(res.Index, res.Key, res.Err == nil)
	}
	// Output:
	// 0 vs true
	// 1 nosuch false
	// 2 vs true
}

// LoadCached restores persisted wrappers through the compiled-artifact
// cache: the first restore compiles, every further restore of the same
// expression is a cache hit sharing the compiled automata. A nil disk tier
// keeps the cache memory-only.
func ExampleLoadCached() {
	payload, err := exampleWrapper().MarshalJSON()
	if err != nil {
		panic(err)
	}
	cache := extract.NewTieredCache(extract.NewCache(16, nil), nil)
	for i := 0; i < 3; i++ {
		if _, err := wrapper.LoadCached(payload, machine.Options{}, cache); err != nil {
			panic(err)
		}
	}
	st := cache.Stats()
	fmt.Printf("misses=%d hits=%d\n", st.Misses, st.Hits)
	// Output: misses=1 hits=2
}
