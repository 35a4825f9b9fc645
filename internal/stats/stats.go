// Package stats provides the streaming statistics used by the
// simulator: numerically stable running moments, extrema tracking,
// logarithmic histograms for delay distributions, and the delay
// aggregation logic defined in Section V of the paper (input-oriented
// and output-oriented multicast delay).
//
// All collectors are single-writer streaming structures: the simulation
// engine feeds them one observation at a time and never stores raw
// samples, so memory stays constant over million-slot runs. Collectors
// from independent runs can be combined with Merge for parallel sweeps.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Welford accumulates count, mean and variance of a stream of float64
// observations using Welford's online algorithm, which remains accurate
// when the mean is large relative to the variance (exactly the regime
// of long-run queue statistics). The zero value is an empty
// accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge folds the observations of o into w (Chan et al. parallel
// variance combination). o is unchanged.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean, or NaN with no observations.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance, or NaN with fewer
// than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or NaN with none.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN with none.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// StdErr returns the standard error of the mean, or NaN with fewer
// than two observations. Observations are treated as independent; for
// correlated slot samples this understates the error, which is fine
// for the qualitative comparisons the harness makes.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// String summarises the accumulator for logs.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// MaxInt64 tracks the maximum of a stream of int64 observations; the
// zero value reports 0 with no observations, matching "maximum queue
// size seen" semantics where an untouched queue has size 0.
type MaxInt64 struct {
	v int64
}

// Observe records x.
func (m *MaxInt64) Observe(x int64) {
	if x > m.v {
		m.v = x
	}
}

// Value returns the maximum observed so far (0 if none).
func (m *MaxInt64) Value() int64 { return m.v }

// Merge folds another tracker in.
func (m *MaxInt64) Merge(o *MaxInt64) { m.Observe(o.v) }

// Histogram counts non-negative int64 observations in power-of-two
// buckets: bucket k holds values in [2^(k-1), 2^k) with bucket 0
// holding exactly 0 and bucket 1 holding exactly 1. Delay and queue
// size distributions span several orders of magnitude near saturation,
// so logarithmic buckets capture the shape in constant space.
type Histogram struct {
	counts []int64
	n      int64
}

func bucketOf(x int64) int {
	if x <= 0 {
		return 0
	}
	return bits.Len64(uint64(x))
}

// Observe records x; negative values count into bucket 0.
func (h *Histogram) Observe(x int64) {
	b := bucketOf(x)
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.n++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Buckets returns a copy of the bucket counts; index k covers
// [2^(k-1), 2^k) for k >= 1 and {0} for k = 0.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1):
// the upper edge of the bucket in which the quantile falls. With no
// observations it returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for k, c := range h.counts {
		cum += c
		if cum >= target {
			if k == 0 {
				return 0
			}
			return int64(1)<<uint(k) - 1
		}
	}
	return int64(1)<<uint(len(h.counts)) - 1
}

// Merge folds the observations of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for len(h.counts) < len(o.counts) {
		h.counts = append(h.counts, 0)
	}
	for k, c := range o.counts {
		h.counts[k] += c
	}
	h.n += o.n
}
