package wrapper

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestFleetConcurrentUse hammers a fleet from many goroutines mixing reads
// (ExtractFrom, Keys, MarshalJSON) with writes (Add, Remove). Run
// with -race; the assertions only check basic sanity — the point is that
// the schedule is data-race-free.
func TestFleetConcurrentUse(t *testing.T) {
	f, live := fleetFixture(t)
	acme, bolt := f.Get("acme"), f.Get("bolt")
	ctx := context.Background()

	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := "acme"
			w := acme
			if id%2 == 1 {
				key = "bolt"
				w = bolt
			}
			for j := 0; j < iters; j++ {
				switch j % 5 {
				case 0:
					// Extraction may hit a window where the key is removed;
					// only the error classification matters, not success.
					if _, err := f.ExtractFromContext(ctx, key, live[key]); err != nil && f.Get(key) != nil {
						// The wrapper was present after the failure — it must
						// then have been a real extraction error, which this
						// fixture never produces.
						t.Errorf("worker %d: %v", id, err)
						return
					}
				case 1:
					f.Add(fmt.Sprintf("tmp-%d", id), w)
				case 2:
					f.Remove(fmt.Sprintf("tmp-%d", id))
				case 3:
					f.Keys()
					f.Len()
				case 4:
					if _, err := f.MarshalJSON(); err != nil {
						t.Errorf("worker %d: marshal: %v", id, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	// The permanent sites survived the churn.
	for _, key := range []string{"acme", "bolt"} {
		if f.Get(key) == nil {
			t.Errorf("%s lost", key)
		}
	}
}
