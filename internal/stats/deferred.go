package stats

import "math"

// Deferred batches observations for a Welford accumulator: samples land
// in plain running sums (one add and one fused multiply-add each, no
// data-dependent division chain) and are folded into the target roughly
// every `every` samples via the parallel-variance merge. The resulting
// count, min and max are identical to feeding the target directly; mean
// and variance agree up to floating-point rounding — the *op order*
// differs, which is why deferral is confined to fast mode (DESIGN.md
// §12) and validated statistically rather than bit-exactly.
//
// The zero value is unusable; construct with NewDeferred. Callers must
// invoke Flush before reading the target.
type Deferred struct {
	target *Welford
	every  int64
	n      int64
	sum    float64
	sumsq  float64
	min    float64
	max    float64
}

// NewDeferred returns a batcher flushing into target about every
// `every` observations (values below 1 are treated as 1).
func NewDeferred(target *Welford, every int64) *Deferred {
	if every < 1 {
		every = 1
	}
	d := &Deferred{target: target, every: every}
	d.reset()
	return d
}

func (d *Deferred) reset() {
	d.n, d.sum, d.sumsq = 0, 0, 0
	d.min, d.max = math.Inf(1), math.Inf(-1)
}

// Add records one observation, flushing when the batch is full.
func (d *Deferred) Add(x float64) {
	if x < d.min {
		d.min = x
	}
	if x > d.max {
		d.max = x
	}
	d.sum += x
	d.sumsq += x * x
	d.n++
	if d.n >= d.every {
		d.Flush()
	}
}

// Flush folds the pending batch into the target. A batch of n samples
// with sum S and sum of squares Q has mean S/n and centered second
// moment Q - S²/n (clamped at zero against cancellation), which is
// exactly the (n, mean, m2) triple the Chan-et-al merge consumes.
func (d *Deferred) Flush() {
	if d.n == 0 {
		return
	}
	mean := d.sum / float64(d.n)
	m2 := d.sumsq - d.sum*mean
	if m2 < 0 {
		m2 = 0
	}
	d.target.Merge(&Welford{n: d.n, mean: mean, m2: m2, min: d.min, max: d.max})
	d.reset()
}

// Pending returns the number of unflushed observations.
func (d *Deferred) Pending() int64 { return d.n }
