package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the percentile is a single
// stall's latency, not a property of the system.
const minBeyond = 10

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the q-quantile (0 < q <= 1) of an ascending
// sample by the nearest-rank rule; 0 for an empty sample.
func nearestRank(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile is the percentile chooser: it returns the q-quantile
// of an ascending sample only when at least minBeyond samples lie
// strictly beyond its rank, and ok=false otherwise.
func tailPercentile(s []float64, q float64) (v float64, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	i := rankIndex(len(s), q)
	if len(s)-1-i < minBeyond {
		return 0, false
	}
	return s[i], true
}

// median is the nearest-rank p50 of an unsorted sample.
func median(v []float64) float64 { return nearestRank(sorted(v), 0.5) }

// quartiles returns the first quartile, median and third quartile of
// v by the exclusive method, the one Python's
// statistics.quantiles(v, n=4) uses, so a spread computed here equals
// the one the driver computes from the same values. It needs at least
// two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
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
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
