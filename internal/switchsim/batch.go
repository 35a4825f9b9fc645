package switchsim

import (
	"runtime"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
)

// Arrival batches (DESIGN.md §17). The sources are open-loop — none
// ever reads switch state — so the draw for a slot does not have to
// happen inside that slot. fill draws a run of consecutive slots into a
// batch; drain consumes them one slot at a time. A run without a spare
// CPU fills one slot and steps it, which is the old in-tick draw; a run
// with Config.DrawAhead has a producer goroutine fill the next batch
// while the caller steps the current one. The consumer half assigns
// packet IDs and feeds the switch in the order the records were drawn,
// so the two modes are indistinguishable in every output.

// batch holds the arrivals of consecutive pre-drawn slots: one record
// per arrival, in (slot, input) order. Exactly one goroutine owns a
// batch at any time; the channels in runTo hand it over.
type batch struct {
	// ends[k] is the number of records in the batch's first k+1 slots;
	// its length is the number of slots drawn, its capacity the most
	// the batch may hold.
	ends   []int32
	inputs []int32 // record i's input port

	// Where record i's destination set is drawn. A draw-ahead batch
	// packs the sets into words, stride each, and points view at one
	// row at a time: the producer cannot reach the packet pool, so the
	// consumer copies each row's words into a packet, never through
	// view, which shares a cache line with the other batch's. The inline batch never
	// leaves the caller's goroutine and keeps a pooled packet per record
	// instead, so the draw lands where the old in-tick draw put it.
	words  []uint64
	stride int
	view   *destset.Set
	pkts   []*cell.Packet
}

// A draw-ahead batch is sized by work, not by slot count: a hand-off
// parks and wakes a CPU, so it should come no more than once per
// millisecond of consumer work (DESIGN.md §17 has the measurements).
// Arrivals are the work, so a batch is a fixed number of record bytes —
// or one full slot's worth where that is more, which is where a single
// slot is already a millisecond — under a slot ceiling that only an
// almost idle switch reaches.
const (
	aheadBatchBytes = 96 << 10
	aheadBatchSlots = 1024
)

// newBatches allocates the run's batches once, at their final size: one
// single-slot batch for the inline draw, two for the producer and the
// consumer to swap.
func (r *Runner) newBatches() []*batch {
	n := len(r.into)
	if !r.cfg.DrawAhead {
		b := &batch{ends: make([]int32, 0, 1), inputs: make([]int32, n), pkts: make([]*cell.Packet, n)}
		for i := range b.pkts {
			b.pkts[i] = r.pool.Get()
		}
		return []*batch{b}
	}
	stride := destset.WordsPerRow(n)
	records := max(aheadBatchBytes/(4+8*stride), n)
	batches := make([]*batch, 2)
	for i := range batches {
		batches[i] = &batch{
			ends:   make([]int32, 0, aheadBatchSlots),
			inputs: make([]int32, records),
			words:  make([]uint64, records*stride),
			stride: stride,
			view:   destset.New(n),
		}
	}
	return batches
}

// record returns the set record i is drawn into, and read back from.
func (b *batch) record(i int) *destset.Set {
	if b.pkts != nil {
		return b.pkts[i].Dests
	}
	b.view.Alias(b.words[i*b.stride : (i+1)*b.stride])
	return b.view
}

// fill draws slots slot, slot+1, ... into b until it reaches end or b
// cannot be sure of room for another slot, and returns the first slot
// it did not draw. It draws at least one slot when slot < end. This is
// the only place the sources are polled.
func (r *Runner) fill(b *batch, slot, end int64) int64 {
	n := len(r.into)
	b.ends = b.ends[:0]
	recs := 0
	for slot < end && len(b.ends) < cap(b.ends) && recs+n <= len(b.inputs) {
		for in, src := range r.into {
			if r.skips != nil {
				// Fast mode: a source that knows its next arrival slot is
				// not even polled until then.
				if sk := r.skips[in]; sk != nil && sk.NextArrival() > slot {
					continue
				}
			}
			if src.NextInto(slot, b.record(recs)) {
				b.inputs[recs] = int32(in)
				recs++
			}
		}
		b.ends = append(b.ends, int32(recs))
		slot++
	}
	return slot
}

// arrive is the consumer half of slot k of b: each record becomes a
// pooled packet with the next ID, is counted, and enters the switch.
func (r *Runner) arrive(b *batch, k int, slot, warmup int64) {
	i := 0
	if k > 0 {
		i = int(b.ends[k-1])
	}
	for ; i < int(b.ends[k]); i++ {
		var p *cell.Packet
		if b.pkts != nil {
			p, b.pkts[i] = b.pkts[i], r.pool.Get()
		} else {
			p = r.pool.Get()
			copy(p.Dests.Words(), b.words[i*b.stride:(i+1)*b.stride])
		}
		r.nextID++
		p.ID, p.Input, p.Arrival = r.nextID, int(b.inputs[i]), slot
		if slot >= warmup {
			r.offeredPackets++
			r.offeredCopies += int64(p.Fanout())
		}
		r.sw.Arrive(p)
	}
}

// drain simulates every slot drawn into b, the first of which is slot,
// and returns the next slot — early, with true, the moment the backlog
// passes the instability ceiling.
func (r *Runner) drain(b *batch, slot, warmup int64) (int64, bool) {
	for k := range b.ends {
		r.arrive(b, k, slot, warmup)
		r.step(slot, warmup)
		slot++
		if r.sw.BufferedCells() > r.cfg.UnstableCellLimit {
			return slot, true
		}
	}
	return slot, false
}

// runTo simulates slots [slot, end) and returns the next slot, and
// true if the run went unstable on the way. With DrawAhead a producer
// goroutine draws the segment while this one steps it; the producer has
// exited by the time runTo returns, on every path, so the sources are
// then at rest — at exactly end when the segment completed, which is
// what lets a checkpoint be taken there.
func (r *Runner) runTo(slot, end, warmup int64) (int64, bool) {
	if !r.cfg.DrawAhead {
		b := r.batches[0]
		for slot < end {
			r.fill(b, slot, end)
			var unstable bool
			if slot, unstable = r.drain(b, slot, warmup); unstable {
				return slot, true
			}
		}
		return slot, false
	}

	// Both channels can hold every batch there is, so no send ever
	// blocks: the producer parks only waiting for a drained batch, the
	// consumer only waiting for a drawn one.
	full := make(chan *batch, len(r.batches))
	free := make(chan *batch, len(r.batches))
	for _, b := range r.batches {
		free <- b
	}
	done := make(chan struct{})
	go func(next int64) {
		defer close(done)
		for next < end {
			b, ok := <-free
			if !ok {
				return
			}
			next = r.fill(b, next, end)
			full <- b
		}
	}(slot)
	// Closing free stops a producer that still has slots to draw (the
	// unstable exit); one that drew them all is already on its way out.
	defer func() {
		close(free)
		<-done
	}()
	for slot < end {
		b := <-full
		var unstable bool
		if slot, unstable = r.drain(b, slot, warmup); unstable {
			return slot, true
		}
		free <- b
	}
	return slot, false
}

// SpareCPU reports whether a run whose switch keeps busy CPUs occupied
// (1 for anything but a parallel fabric) leaves one idle for the
// draw-ahead producer. Callers that run one simulation at a time set
// Config.DrawAhead from it; callers that already fill the CPUs with
// their own workers do not.
func SpareCPU(busy int) bool { return runtime.GOMAXPROCS(0) > max(1, busy) }
