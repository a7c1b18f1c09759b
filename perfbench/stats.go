package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and whether it is a tail worth reporting: at least
// ten samples must lie strictly beyond the rank, or the "percentile" is
// just the few largest samples. A median (q = 0.5) needs only one sample.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && n-1-rank < 10 {
		return s[rank], false
	}
	return s[rank], true
}

// median is percentile(samples, 0.5), always reportable for a non-empty
// sample.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
