package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count guard on tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so a p99
// needs 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of samples and
// how many samples lie beyond that rank. ok is false when fewer than
// minBeyond do (p = 0.5 passes from 20 samples up).
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1 // the epsilon absorbs 0.99·n rounding up
	rank = max(0, min(rank, n-1))
	beyond = n - 1 - rank
	return s[rank], beyond, beyond >= minBeyond
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), so spreads computed here match those computed by tools that use
// it. Fewer than two values give that value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
