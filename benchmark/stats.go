package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (p in [0,100]) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Nearest rank never interpolates, so every reported
// latency is one the run really observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// medianOfWindows is the throughput rule: the median of the per-second
// completed-op counts. The mean of the same counts rides the p99 tail —
// one stalled second drags it — while the median reports the rate the
// system sustains in a typical second.
func medianOfWindows(perSecond []int) float64 {
	vs := make([]float64, len(perSecond))
	for i, n := range perSecond {
		vs[i] = float64(n)
	}
	return median(vs)
}

// quartileSpread is the repeatability figure used throughout: the
// distance between the first and third quartile as a share of the median.
// The quartiles follow Python's statistics.quantiles(values, n=4)
// (exclusive method), the rule the PR driver applies, so a spread computed
// here can be held against a bound directly. Fewer than two values have
// no spread (0).
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
