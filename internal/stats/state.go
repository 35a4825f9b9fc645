package stats

import "voqsim/internal/snap"

// Checkpoint hooks. Every collector serializes its complete internal
// state so a restored run's statistics continue bit-identically —
// floats travel as IEEE-754 bit patterns, so even rounding state (the
// Welford m2 term) survives exactly. The hooks write raw fields, no
// sections: each collector is embedded in some component's section
// and the enclosing component owns the framing.

// SaveState appends the accumulator's raw state.
func (w *Welford) SaveState(sw *snap.Writer) {
	sw.I64(w.n)
	sw.F64(w.mean)
	sw.F64(w.m2)
	sw.F64(w.min)
	sw.F64(w.max)
}

// LoadState restores state written by SaveState.
func (w *Welford) LoadState(r *snap.Reader) error {
	w.n = r.I64()
	w.mean = r.F64()
	w.m2 = r.F64()
	w.min = r.F64()
	w.max = r.F64()
	if w.n < 0 {
		r.Failf("welford count %d negative", w.n)
	}
	return r.Err()
}

// SaveState appends the tracker's raw state.
func (m *MaxInt64) SaveState(sw *snap.Writer) { sw.I64(m.v) }

// LoadState restores state written by SaveState.
func (m *MaxInt64) LoadState(r *snap.Reader) error {
	m.v = r.I64()
	return r.Err()
}

// SaveState appends the histogram's raw state.
func (h *Histogram) SaveState(sw *snap.Writer) {
	sw.I64s(h.counts)
	sw.I64(h.n)
}

// LoadState restores state written by SaveState, rejecting bucket
// vectors no sequence of Observe calls can produce.
func (h *Histogram) LoadState(r *snap.Reader) error {
	counts := r.I64s()
	n := r.I64()
	if r.Err() != nil {
		return r.Err()
	}
	// bucketOf maxes out at bits.Len64 = 64, so 65 buckets at most.
	if len(counts) > 65 {
		r.Failf("histogram has %d buckets, maximum is 65", len(counts))
		return r.Err()
	}
	var sum int64
	for k, c := range counts {
		if c < 0 {
			r.Failf("histogram bucket %d count %d negative", k, c)
			return r.Err()
		}
		sum += c
	}
	if sum != n {
		r.Failf("histogram total %d does not match bucket sum %d", n, sum)
		return r.Err()
	}
	h.counts = counts
	h.n = n
	return nil
}

// SaveState appends the tracker's complete state: its accumulators
// and counters. It keeps no per-packet state.
func (t *DelayTracker) SaveState(sw *snap.Writer) {
	sw.I64(t.measureFrom)
	t.inOriented.SaveState(sw)
	t.outOriented.SaveState(sw)
	t.inHist.SaveState(sw)
	t.outHist.SaveState(sw)
	t.uniIn.SaveState(sw)
	t.multiIn.SaveState(sw)
	sw.Count(len(t.perOutput))
	for i := range t.perOutput {
		t.perOutput[i].SaveState(sw)
	}
	sw.I64(t.delivered)
	sw.I64(t.completed)
}

// LoadState restores state written by SaveState into a fresh tracker.
func (t *DelayTracker) LoadState(r *snap.Reader) error {
	t.measureFrom = r.I64()
	if err := t.inOriented.LoadState(r); err != nil {
		return err
	}
	if err := t.outOriented.LoadState(r); err != nil {
		return err
	}
	if err := t.inHist.LoadState(r); err != nil {
		return err
	}
	if err := t.outHist.LoadState(r); err != nil {
		return err
	}
	if err := t.uniIn.LoadState(r); err != nil {
		return err
	}
	if err := t.multiIn.LoadState(r); err != nil {
		return err
	}
	nOut := r.Count(8)
	t.perOutput = make([]Welford, nOut)
	for i := range t.perOutput {
		if err := t.perOutput[i].LoadState(r); err != nil {
			return err
		}
	}
	t.delivered = r.I64()
	t.completed = r.I64()
	return r.Err()
}

// SaveState appends the occupancy tracker's raw state.
func (o *Occupancy) SaveState(sw *snap.Writer) {
	o.avg.SaveState(sw)
	o.max.SaveState(sw)
}

// LoadState restores state written by SaveState.
func (o *Occupancy) LoadState(r *snap.Reader) error {
	if err := o.avg.LoadState(r); err != nil {
		return err
	}
	return o.max.LoadState(r)
}
