package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: the helpers must sort
	}
	return out
}

func TestPercentileGuard(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{999, 0.99, 990, 9, false},
		{1000, 0.99, 990, 10, true},
		{5000, 0.99, 4950, 50, true},
		{19, 0.5, 10, 9, false},
		{20, 0.5, 10, 10, true},
		{100, 0.9, 90, 10, true},
		{0, 0.5, 0, 0, false},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("p%g of %d samples = %g with %d beyond (ok %v), want %g with %d beyond (ok %v)",
				tc.p*100, tc.n, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(2), 0.75, 1.5, 2.25},
		{seq(5), 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
}

// Wall-clock metrics keep only the unstolen share of their time and are
// divided by the speed factor; CPU time is only divided by it.
func TestEndToEndScalesToReferenceSpeed(t *testing.T) {
	w := &workload{}
	read := &op{pages: make([]doc, 4)}
	run := func(speed, steal float64) map[string]metricValue {
		win := window{closedSpeed: speed, closedSteal: steal, elapsed: time.Second, ticks: 50}
		for i := 0; i < 100; i++ {
			win.closed = append(win.closed, result{op: read, latency: time.Millisecond})
		}
		h := &httpRun{w: w, windows: []window{win}}
		h.tally()
		return h.endToEnd()
	}
	base := run(1, 0)
	if v := base["docs_per_s"].Value; v != 400 {
		t.Fatalf("docs_per_s = %g, want 400", v)
	}
	for _, tc := range []struct{ speed, steal float64 }{{2, 0}, {1, 0.5}, {2, 0.5}} {
		got := run(tc.speed, tc.steal)
		wall := (1 - tc.steal) / tc.speed
		for name, want := range map[string]float64{
			"closed_p50_ms":  base["closed_p50_ms"].Value * wall,
			"docs_per_s":     base["docs_per_s"].Value / wall,
			"cpu_ms_per_doc": base["cpu_ms_per_doc"].Value / tc.speed,
		} {
			if v := got[name].Value; math.Abs(v-want) > 1e-9*want {
				t.Errorf("speed %g, steal %g: %s = %g, want %g", tc.speed, tc.steal, name, v, want)
			}
		}
	}
}

func TestCalmKeepsLowStealAndAtLeastHalf(t *testing.T) {
	id := func(x float64) float64 { return x }
	for _, tc := range []struct {
		steal, want []float64
	}{
		{[]float64{0.5, 0.01, 0.2, 0, 0.04, 0.02}, []float64{0, 0.01, 0.02}},
		{[]float64{0.01, 0, 0.02, 0.03}, []float64{0, 0.01, 0.02, 0.03}},
		{[]float64{0.1, 0.4, 0.2, 0.3}, []float64{0.1, 0.2}},
		{[]float64{0.2, 0.01, 0.3}, []float64{0.01, 0.2}},
	} {
		got := calm(tc.steal, id)
		if len(got) != len(tc.want) {
			t.Errorf("calm(%v) = %v, want %v", tc.steal, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("calm(%v) = %v, want %v", tc.steal, got, tc.want)
				break
			}
		}
	}
}
