package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is set by a handful of outliers and a
// 10 % gate on it would trip on noise.
const minBeyond = 10

// percentile returns the exact nearest-rank p-quantile (0 < p < 1) of the
// ascending samples: the value at rank ceil(p*n). It refuses when fewer than
// minBeyond samples lie beyond that rank. (obs.Histogram.Quantile is
// bucketed; its resolution is too coarse to gate a 10 % change on.)
func percentile(sorted []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: percentile %v outside (0, 1)", p)
	}
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("stats: p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// sortedCopy returns the samples in ascending order, leaving the input alone.
func sortedCopy(samples []float64) []float64 {
	out := append([]float64(nil), samples...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of values
// exactly as Python's statistics.quantiles(values, n=4) does (the default
// "exclusive" method), which is what the benchmark contract's spread rule
// is written against. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("stats: quartiles need at least 2 values, got %d", n)
	}
	s := sortedCopy(values)
	cut := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based axis; j is clamped to 1..n-1
		// before delta is taken, so the ends extrapolate like Python's.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// medianOf returns the median of a small set of values (mean of the middle
// two for an even count); 0 for none.
func medianOf(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
