package bench

import (
	"slices"
	"testing"
	"time"

	"resilex/internal/wrapper"
)

// TestE18FailoverZeroFailedRequests asserts the acceptance property of the
// failover run directly, independent of the emitted bench table: with
// replication factor 2, killing the primary owner of a key range mid-run
// loses zero requests — every request either lands on a live owner or fails
// over to one.
func TestE18FailoverZeroFailedRequests(t *testing.T) {
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	res := runClusterBench(e18Config{
		shards:   3,
		replicas: 2,
		keys:     8,
		window:   400 * time.Millisecond,
		service:  5 * time.Millisecond,
		killOne:  true,
	}, payload)

	if res.requests == 0 {
		t.Fatal("failover run issued no requests")
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d requests failed through the shard kill, want 0", res.failed, res.requests)
	}
	if res.failovers == 0 {
		t.Error("no failovers recorded — the kill never exercised the failover path")
	}
	if res.downNodes == 0 {
		t.Error("router never marked the killed shard down")
	}
}

// TestE18ShardScaling: under the capacity model, 2 shards must beat 1 —
// the cheap always-on guard for the scaling claim (the full 1/2/4 sweep
// runs in `make bench`). The two shard counts run in three alternating
// windows each and the medians are compared, so one stall from the
// packages a full `go test ./...` runs beside this one moves a single
// window, not the verdict.
func TestE18ShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling check")
	}
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rate := func(shards int) float64 {
		res := runClusterBench(e18Config{
			shards: shards, replicas: 1, keys: 8,
			window:  400 * time.Millisecond,
			service: 5 * time.Millisecond,
		}, payload)
		if res.failed != 0 {
			t.Fatalf("%d shards: %d failed requests", shards, res.failed)
		}
		return float64(res.requests) / res.elapsed.Seconds()
	}
	var r1, r2 []float64
	for range 3 {
		r1 = append(r1, rate(1))
		r2 = append(r2, rate(2))
	}
	slices.Sort(r1)
	slices.Sort(r2)
	if r2[1] < r1[1]*1.3 {
		t.Errorf("median 2 shards = %.0f req/s vs 1 shard = %.0f req/s — no scaling win (windows %.0f vs %.0f)", r2[1], r1[1], r2, r1)
	}
}
