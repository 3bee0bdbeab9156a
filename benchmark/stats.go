package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p <= 100) of v by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample (mean of the two middle samples for an
// even count); NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailLadder is the set of percentiles a tail metric may report.
var tailLadder = []float64{99, 95, 90, 80, 75}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be trusted (choosing-metrics guide, section 1).
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that still
// leaves at least minBeyond samples beyond it in a sample of size n. With
// too few samples for any rung it falls back to the median (50).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 50
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), so the
// spreads this harness reports match the ones the benchmark contract is
// judged by. It needs at least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based axis, linear interpolation
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// tailOf returns the tail statistic of v and the percentile it is: the
// tailPercentile of the sample, or the median when the sample is too small
// for any rung of the ladder.
func tailOf(v []float64) (value, p float64) {
	p = tailPercentile(len(v))
	if p == 50 {
		return median(v), p
	}
	return percentile(v, p), p
}
