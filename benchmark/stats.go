package main

import (
	"fmt"
	"math"
	"slices"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 100)
// of sorted: the smallest sample with at least p% of the samples at or below
// it, or 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supportedPercentiles are the tail percentiles a report may name, highest
// last.
var supportedPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// highestSupported returns the highest of supportedPercentiles that leaves at
// least ten samples beyond it in a sample of n, or 0 when even the median
// does not. A percentile with fewer than ten samples past it is set by one or
// two outliers, so a report never claims one.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range supportedPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// pctName renders a percentile as a metric-name fragment: 99.9 -> "p99.9".
func pctName(p float64) string {
	return "p" + trimFloat(p)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// median of values (any order); NaN for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of values exactly as
// Python's statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones any other
// tool computes from the same runs. With one value both quartiles are that
// value.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}
