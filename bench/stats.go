package main

import (
	"math"
	"sort"
	"time"
)

// beyond is how many samples must lie past a percentile before it is
// reported: with fewer, the number is one or two outliers, not a tail.
const beyond = 10

// quantile returns the nearest-rank q-quantile of sorted, and whether
// at least `beyond` samples lie past it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= beyond
}

// supported returns the q-quantile, or 0 when the sample cannot carry it.
func supported(sorted []float64, q float64) float64 {
	v, ok := quantile(sorted, q)
	if !ok {
		return 0
	}
	return v
}

// sortedMs converts latencies to ascending milliseconds.
func sortedMs(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the rule the acceptance
// driver applies). Fewer than four values fall back to the full range.
func spreadShare(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
