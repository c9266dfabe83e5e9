package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile,
// so a tail value never rests on a handful of observations.
const minBeyond = 10

// percentile returns the nearest-rank num/den quantile of samples (for
// p99, num=99 and den=100). It fails when fewer than minBeyond samples
// lie above the quantile. Integer rank arithmetic keeps the boundary
// exact: p99 needs at least 1000 samples.
func percentile(samples []float64, num, den int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := (n*num + den - 1) / den // 1-based, ceil(n*num/den)
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d/%d of %d samples leaves %d beyond it, need %d", num, den, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two for even counts).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
