package main

import (
	"math"
	"sort"
)

// sample is a throughput or timing metric as the benchmark reports it:
// the median over the timed repetitions with the quartiles, the count
// and the per-repetition values beside it.
type sample struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) sample {
	s := sample{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// sampleOf summarizes f over the repetitions xs.
func sampleOf[T any](xs []T, f func(T) float64) sample {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return summarize(vs)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) returns (the "exclusive" method:
// position i*(n+1)/4 with linear interpolation, clamped to the data),
// so a spread computed here equals the one the driver computes. A
// single value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
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
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure the benchmark contract bounds.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice, and 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// relDiff is (b-a)/|a|, with 0 for two zeros and +Inf when only a is 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}
