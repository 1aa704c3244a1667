package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported percentile must have above
// it: a p99 of fewer than 1,000 samples rests on a handful of outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// percentile returns the nearest-rank q-quantile of sorted samples and
// how many samples lie beyond it. It fails when fewer than minBeyond do,
// except for the median.
func percentile(sorted []time.Duration, q float64) (time.Duration, int, error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", q*100)
	}
	r := rank(n, q)
	beyond := n - r
	if q > 0.5 && beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	return sorted[r-1], beyond, nil
}

// p50 is the nearest-rank median of sorted samples, 0 for none.
func p50(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), 0.5)-1]
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quartiles returns the first and third quartile and the median of
// values by the method of Python's statistics.quantiles(values, n=4)
// (the default, "exclusive"), so summaries match a check made with it.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const groups = 4
		m := len(s) + 1
		j := min(max(i*m/groups, 1), len(s)-1)
		delta := float64(i*m - j*groups)
		return (s[j-1]*(groups-delta) + s[j]*delta) / groups
	}
	return cut(1), cut(2), cut(3)
}

func medianOf(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
