package stats

import (
	"fmt"

	"voqsim/internal/cell"
)

// DelayTracker aggregates multicast transmission delay exactly as
// Section V of the paper defines it:
//
//   - Input-oriented delay: the delay at which the *last* destination
//     of a packet receives it — the sender is done only then.
//   - Output-oriented delay: the delay of each individual copy — each
//     receiver cares only about its own.
//
// Packets arriving before the measurement window (warmup) are excluded
// entirely, including copies of theirs delivered inside the window.
type DelayTracker struct {
	// measureFrom is the first arrival slot whose packets count.
	measureFrom int64

	inOriented  Welford
	outOriented Welford
	inHist      Histogram
	outHist     Histogram

	// Per-class input-oriented delay: unicast (fanout 1) versus
	// multicast (fanout >= 2). The split backs the mixed-traffic
	// fairness observations (a scheduler can look good on average
	// while starving one class).
	uniIn   Welford
	multiIn Welford

	// perOutput accumulates per-copy delay by destination output,
	// grown on demand; under non-uniform (hotspot) traffic the hot
	// output's series separates from the cold ones.
	perOutput []Welford

	delivered int64 // copies counted (post-warmup packets only)
	completed int64 // packets fully delivered

	// Fast-mode deferred accumulators (nil in the bit-exact default).
	// When set, per-sample Welford updates are replaced by plain batch
	// sums flushed into the same accumulators every K samples — count,
	// min and max stay identical, mean/variance agree up to rounding.
	// Histograms stay exact either way: integer bucket counts are
	// order-insensitive. FlushDeferred must run before reading results.
	dOut       *Deferred
	dIn        *Deferred
	dUni       *Deferred
	dMulti     *Deferred
	dPerOutput []Deferred

	// sampleEvery > 1 restricts delay statistics to every K-th packet
	// ID (EnableSampling); 0 or 1 means every packet, the default.
	sampleEvery uint64
}

// NewDelayTracker returns a tracker counting packets that arrive at or
// after slot measureFrom.
func NewDelayTracker(measureFrom int64) *DelayTracker {
	return &DelayTracker{measureFrom: measureFrom}
}

// EnableDeferred switches the tracker to fast-mode batched
// accumulation: delay samples collect in plain sums and fold into the
// Welford state roughly every `every` samples. outputs is the switch
// port count — the per-output table is pre-sized so its accumulators
// never move while deferred batchers point at them. Must be called
// before the first Deliver; FlushDeferred must be called before the
// accumulators are read.
func (t *DelayTracker) EnableDeferred(outputs int, every int64) {
	if t.delivered != 0 {
		panic("stats: EnableDeferred after deliveries")
	}
	for len(t.perOutput) < outputs {
		t.perOutput = append(t.perOutput, Welford{})
	}
	t.dOut = NewDeferred(&t.outOriented, every)
	t.dIn = NewDeferred(&t.inOriented, every)
	t.dUni = NewDeferred(&t.uniIn, every)
	t.dMulti = NewDeferred(&t.multiIn, every)
	t.dPerOutput = make([]Deferred, outputs)
	for i := range t.dPerOutput {
		t.dPerOutput[i] = *NewDeferred(&t.perOutput[i], every)
	}
}

// EnableSampling restricts delay *statistics* to every K-th packet
// (by ID — IDs are issued sequentially, so this is a 1-in-K systematic
// sample of the arrival process, independent of queue state). Copy
// counting stays exact: deliveries of unsampled packets are still
// counted, so DeliveredCopies is unaffected; Completed counts sampled
// packets only (the facade scales it back). Requires EnableDeferred
// first — this is a fast-mode facility (DESIGN.md §12), never used on
// the bit-exact path.
func (t *DelayTracker) EnableSampling(every int64) {
	if t.dOut == nil {
		panic("stats: EnableSampling without EnableDeferred")
	}
	if t.delivered != 0 {
		panic("stats: EnableSampling after deliveries")
	}
	if every < 1 {
		every = 1
	}
	t.sampleEvery = uint64(every)
}

// FlushDeferred folds any pending deferred batches into the Welford
// accumulators. A no-op in exact mode.
func (t *DelayTracker) FlushDeferred() {
	if t.dOut == nil {
		return
	}
	t.dOut.Flush()
	t.dIn.Flush()
	t.dUni.Flush()
	t.dMulti.Flush()
	for i := range t.dPerOutput {
		t.dPerOutput[i].Flush()
	}
}

// Arrive does nothing: a delivery carries everything the tracker
// reads (Arrival, Fanout, Done), so it keeps no per-packet state. It
// stays because bench/traced.go still calls it.
func (t *DelayTracker) Arrive(*cell.Packet) {}

// Drop does nothing: a fabric never marks Done on a packet that lost a
// copy, so the packet is left out of the input-oriented series without
// the tracker's help. It stays because bench/traced.go still calls it.
func (t *DelayTracker) Drop(cell.PacketID, int) {}

// Deliver registers the delivery of one copy. Copies of packets that
// arrived before the measurement window are ignored. The copy's delay
// enters the per-copy series; on the packet's Done copy, which leaves
// last, the same delay is the packet's input-oriented delay. A copy
// delivered before its packet arrived panics.
func (t *DelayTracker) Deliver(d cell.Delivery) {
	if d.Arrival < t.measureFrom {
		return
	}
	delay := d.CopyDelay()
	if delay < 1 {
		panic(fmt.Sprintf("stats: packet %d delivered before arrival (delay %d)", d.ID, delay))
	}
	t.delivered++
	if t.sampleEvery > 1 && uint64(d.ID)%t.sampleEvery != 0 {
		return // unsampled in fast mode: counted, not measured
	}
	x := float64(delay)
	if t.dOut != nil {
		t.dOut.Add(x)
		t.dPerOutput[d.Out].Add(x)
	} else {
		t.outOriented.Add(x)
		for len(t.perOutput) <= d.Out {
			t.perOutput = append(t.perOutput, Welford{})
		}
		t.perOutput[d.Out].Add(x)
	}
	t.outHist.Observe(delay)
	if !d.Done {
		return
	}
	if t.dIn == nil {
		t.inOriented.Add(x)
		if d.Fanout == 1 {
			t.uniIn.Add(x)
		} else {
			t.multiIn.Add(x)
		}
	} else {
		t.dIn.Add(x)
		if d.Fanout == 1 {
			t.dUni.Add(x)
		} else {
			t.dMulti.Add(x)
		}
	}
	t.inHist.Observe(delay)
	t.completed++
}

// InputOriented returns the accumulator of input-oriented delays of
// completed packets.
func (t *DelayTracker) InputOriented() *Welford { return &t.inOriented }

// OutputOriented returns the accumulator of per-copy delays.
func (t *DelayTracker) OutputOriented() *Welford { return &t.outOriented }

// OutputOrientedFor returns the per-copy delay accumulator of one
// destination output; an output that never received a copy yields an
// empty accumulator.
func (t *DelayTracker) OutputOrientedFor(out int) *Welford {
	if out < 0 {
		panic("stats: negative output index")
	}
	for len(t.perOutput) <= out {
		t.perOutput = append(t.perOutput, Welford{})
	}
	return &t.perOutput[out]
}

// UnicastInputOriented returns the input-oriented delay accumulator
// restricted to fanout-1 packets.
func (t *DelayTracker) UnicastInputOriented() *Welford { return &t.uniIn }

// MulticastInputOriented returns the input-oriented delay accumulator
// restricted to packets with fanout >= 2.
func (t *DelayTracker) MulticastInputOriented() *Welford { return &t.multiIn }

// InputHistogram returns the histogram of input-oriented delays.
func (t *DelayTracker) InputHistogram() *Histogram { return &t.inHist }

// OutputHistogram returns the histogram of per-copy delays.
func (t *DelayTracker) OutputHistogram() *Histogram { return &t.outHist }

// Completed returns the number of fully delivered post-warmup packets.
func (t *DelayTracker) Completed() int64 { return t.completed }

// DeliveredCopies returns the number of counted copy deliveries.
func (t *DelayTracker) DeliveredCopies() int64 { return t.delivered }

// Occupancy samples per-port queue sizes once per measured slot and
// tracks their running mean (over slots x ports, the paper's "average
// queue size") and the largest single-port value ever seen ("maximum
// queue size").
type Occupancy struct {
	avg Welford
	max MaxInt64
}

// Sample records one slot's per-port occupancies.
func (o *Occupancy) Sample(sizes []int) {
	for _, s := range sizes {
		o.avg.Add(float64(s))
		o.max.Observe(int64(s))
	}
}

// Average returns the mean per-port occupancy across all samples.
func (o *Occupancy) Average() float64 { return o.avg.Mean() }

// Maximum returns the largest single-port occupancy observed.
func (o *Occupancy) Maximum() int64 { return o.max.Value() }

// Samples returns the number of (slot, port) samples recorded.
func (o *Occupancy) Samples() int64 { return o.avg.Count() }
