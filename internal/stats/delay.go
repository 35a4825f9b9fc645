package stats

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/idwin"
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

	// outstanding holds packets with undelivered copies. Completed
	// packets are removed, so its size is bounded by the number of
	// packets in flight, not the run length.
	outstanding idwin.Window[packetState]

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

// packetState is one in-flight packet of the delay tracker. A fanout
// is at most the switch size, so int32 counters keep the window entry
// at 40 bytes.
type packetState struct {
	arrival  int64
	fanout   int32
	remain   int32
	maxDelay int64
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
// counted through Delivery.Arrival, so DeliveredCopies is unaffected;
// Completed counts sampled packets only (the facade scales it back).
// Requires EnableDeferred first and deliveries carrying their Arrival
// slot, which only the core engine guarantees — this is a fast-mode
// facility (DESIGN.md §12), never used on the bit-exact path.
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

// Arrive registers a packet arrival. Packets arriving before the
// measurement window are ignored (their deliveries will be too).
func (t *DelayTracker) Arrive(p *cell.Packet) {
	if p.Arrival < t.measureFrom {
		return
	}
	if t.sampleEvery > 1 && uint64(p.ID)%t.sampleEvery != 0 {
		return // unsampled in fast mode: no window entry at all
	}
	st, dup := t.outstanding.Ensure(p.ID)
	if dup {
		panic(fmt.Sprintf("stats: duplicate arrival of packet %d", p.ID))
	}
	fanout := int32(p.Fanout())
	*st = packetState{arrival: p.Arrival, fanout: fanout, remain: fanout}
}

// Deliver registers the delivery of one copy. Deliveries of unknown
// (pre-window) packets are ignored. Delivering more copies than the
// packet's fanout panics, because it means a scheduler duplicated or
// fabricated a copy.
func (t *DelayTracker) Deliver(d cell.Delivery) {
	if t.sampleEvery > 1 {
		t.deliverSampled(d)
		return
	}
	st := t.outstanding.Lookup(d.ID)
	if st == nil {
		return
	}
	delay := d.CopyDelay(st.arrival)
	if delay < 1 {
		panic(fmt.Sprintf("stats: packet %d delivered before arrival (delay %d)", d.ID, delay))
	}
	if t.dOut != nil {
		t.dOut.Add(float64(delay))
		t.dPerOutput[d.Out].Add(float64(delay))
	} else {
		t.outOriented.Add(float64(delay))
		for len(t.perOutput) <= d.Out {
			t.perOutput = append(t.perOutput, Welford{})
		}
		t.perOutput[d.Out].Add(float64(delay))
	}
	t.outHist.Observe(delay)
	t.delivered++
	if delay > st.maxDelay {
		st.maxDelay = delay
	}
	st.remain--
	if st.remain < 0 {
		panic(fmt.Sprintf("stats: packet %d over-delivered", d.ID))
	}
	if st.remain == 0 {
		if st.fanout == 0 {
			// Tainted by Drop: some copy never arrived, so the packet
			// has no input-oriented delay and does not complete.
			t.outstanding.Release(d.ID)
			return
		}
		if t.dIn != nil {
			t.dIn.Add(float64(st.maxDelay))
			if st.fanout == 1 {
				t.dUni.Add(float64(st.maxDelay))
			} else {
				t.dMulti.Add(float64(st.maxDelay))
			}
		} else {
			t.inOriented.Add(float64(st.maxDelay))
			if st.fanout == 1 {
				t.uniIn.Add(float64(st.maxDelay))
			} else {
				t.multiIn.Add(float64(st.maxDelay))
			}
		}
		t.inHist.Observe(st.maxDelay)
		t.completed++
		t.outstanding.Release(d.ID)
	}
}

// Drop records that `copies` copies of packet id were discarded in
// transit (the multi-stage fabric's bounded inter-stage links). The
// packet is tainted: its already-delivered copies stay in the per-copy
// statistics, but it can never complete, so it contributes nothing to
// the input-oriented series and is not counted in Completed. Once the
// last owed copy is resolved — delivered or dropped — its window entry
// is released, keeping the in-flight table bounded even on lossy runs.
// Drops of unknown (pre-window, or unsampled in fast mode) packets are
// ignored, mirroring Deliver.
func (t *DelayTracker) Drop(id cell.PacketID, copies int) {
	if copies <= 0 {
		return
	}
	st := t.outstanding.Lookup(id)
	if st == nil {
		return
	}
	st.remain -= int32(copies)
	if st.remain < 0 {
		panic(fmt.Sprintf("stats: packet %d over-dropped", id))
	}
	st.fanout = 0 // taint: this packet never completes
	if st.remain == 0 {
		t.outstanding.Release(id)
	}
}

// deliverSampled is the fast-mode Deliver (EnableSampling active):
// the measurement-window filter and the copy count come straight from
// the delivery's Arrival slot — exact, no table — and only every K-th
// packet pays the statistics work plus a window entry. A sampled
// packet's bookkeeping matches the exact path (remain counting, max
// delay, completion split), just always through the deferred
// accumulators.
func (t *DelayTracker) deliverSampled(d cell.Delivery) {
	if d.Arrival < t.measureFrom {
		return
	}
	t.delivered++
	if uint64(d.ID)%t.sampleEvery != 0 {
		return
	}
	st := t.outstanding.Lookup(d.ID)
	if st == nil {
		return
	}
	delay := d.CopyDelay(st.arrival)
	if delay < 1 {
		panic(fmt.Sprintf("stats: packet %d delivered before arrival (delay %d)", d.ID, delay))
	}
	t.dOut.Add(float64(delay))
	t.dPerOutput[d.Out].Add(float64(delay))
	t.outHist.Observe(delay)
	if delay > st.maxDelay {
		st.maxDelay = delay
	}
	st.remain--
	if st.remain < 0 {
		panic(fmt.Sprintf("stats: packet %d over-delivered", d.ID))
	}
	if st.remain == 0 {
		if st.fanout == 0 {
			t.outstanding.Release(d.ID)
			return
		}
		t.dIn.Add(float64(st.maxDelay))
		if st.fanout == 1 {
			t.dUni.Add(float64(st.maxDelay))
		} else {
			t.dMulti.Add(float64(st.maxDelay))
		}
		t.inHist.Observe(st.maxDelay)
		t.completed++
		t.outstanding.Release(d.ID)
	}
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

// InFlight returns the number of tracked packets not yet fully
// delivered.
func (t *DelayTracker) InFlight() int { return t.outstanding.Len() }

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
