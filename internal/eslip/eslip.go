// Package eslip implements an ESLIP-style combined unicast/multicast
// scheduler (McKeown, "A Fast Switched Backplane for a Gigabit
// Switched Router"; the scheduler of the Cisco 12000 line cards) as an
// extension baseline: the industrial contemporary of the reproduced
// paper's FIFOMS.
//
// Queue structure: each input keeps N unicast VOQs plus ONE multicast
// FIFO queue whose head packet carries a residual fanout — the
// inq.Store TATRA and WBA queue in. Multicast payloads are stored once
// (like the paper's data cells); unicast cells one each.
//
// Scheduling (per slot, iterative):
//
//   - Requests: each free input's HOL multicast packet requests every
//     free output in its residual fanout; each non-empty unicast VOQ
//     with a free output requests that output.
//   - Grants: outputs prefer one traffic class per slot, alternating
//     each slot (ESLIP's frame alternation). A multicast grant uses
//     ONE multicast pointer shared by all outputs — that is ESLIP's
//     trick for making independent output decisions converge on the
//     same multicast packet, playing the role FIFOMS gives to time
//     stamps. Unicast grants use per-output round-robin pointers as in
//     iSLIP.
//   - Accepts: an input that received multicast grants for its HOL
//     packet takes all of them (one payload, fanout splitting for the
//     rest); otherwise it accepts one unicast grant by its round-robin
//     accept pointer.
//
// Pointer updates follow the iSLIP discipline (move only on accepted
// first-iteration grants); the shared multicast pointer advances past
// an input only when that input's HOL multicast packet has been fully
// served, which preserves ESLIP's fanout-splitting fairness.
package eslip

import (
	"fmt"
	"math/bits"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/fifoq"
	"voqsim/internal/inq"
	"voqsim/internal/obs"
)

// Switch is the ESLIP switch. It satisfies the simulation engine's
// Switch interface.
type Switch struct {
	n int

	uniVOQ [][]fifoq.Queue[*cell.Packet] // [input][output]
	mc     *inq.Store                    // one multicast queue per input

	grantPtr  []int // per output, unicast RR
	acceptPtr []int // per input, unicast RR
	mcPtr     int   // shared multicast pointer

	// Occupancy bitsets, maintained on push/pop, so the rotating grant
	// scans visit only inputs that actually hold traffic instead of
	// probing N queues per output per iteration (the cached-HOL fast
	// path; see DESIGN.md § Match kernel). The multicast one is the
	// store's.
	uniOcc []*destset.Set // per output: inputs with a queued unicast cell

	release func(*cell.Packet) // SetReleaseHook; nil leaves packets to the GC

	lastRounds  int
	totalRounds int64
	activeSlots int64

	// payloads counts buffered payloads per input (unicast cells plus
	// multicast packets), kept incrementally so the occupancy
	// high-water gauge costs O(1) per arrival and QueueSizes and
	// BufferedCells O(N) per call instead of an O(N²) rescan.
	payloads []int
	// pending counts the copies still owed — unicast cells plus the
	// multicast copies not yet served — so BufferedBytes is O(1).
	pending int64

	probe obs.Probe // observability (DESIGN.md §8), off in ordinary runs

	// Per-slot scratch: free-port masks and, per input, a row over the
	// outputs that granted it in the current iteration, one row slab
	// per traffic class.
	freeIn  []uint64 // inputs not yet matched
	freeOut []uint64 // outputs not yet matched
	mcBy    []uint64 // [n×words] multicast grants to each input's HOL packet
	uniBy   []uint64 // [n×words] unicast grants to each input
	granted []uint64 // inputs holding at least one grant
	served  []int    // per input: multicast copies served this slot
}

// New returns an n x n ESLIP switch.
func New(n int) *Switch {
	if n <= 0 {
		panic("eslip: non-positive switch size")
	}
	w := destset.WordsPerRow(n)
	s := &Switch{
		n:         n,
		uniVOQ:    make([][]fifoq.Queue[*cell.Packet], n),
		mc:        inq.New(n),
		grantPtr:  make([]int, n),
		acceptPtr: make([]int, n),
		uniOcc:    make([]*destset.Set, n),
		freeIn:    make([]uint64, w),
		freeOut:   make([]uint64, w),
		mcBy:      make([]uint64, n*w),
		uniBy:     make([]uint64, n*w),
		granted:   make([]uint64, w),
		served:    make([]int, n),
		payloads:  make([]int, n),
	}
	for i := range s.uniVOQ {
		s.uniVOQ[i] = make([]fifoq.Queue[*cell.Packet], n)
		s.uniOcc[i] = destset.New(n)
	}
	return s
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Name identifies the algorithm in reports.
func (s *Switch) Name() string { return "eslip" }

// SetObserver attaches (or detaches, with nil) the observability
// layer; call it before the run starts.
func (s *Switch) SetObserver(o *obs.Observer) { s.probe.Attach(o, s.n) }

// Arrive enqueues a packet: unicast cells enter their VOQ, multicast
// packets enter the input's multicast queue whole.
func (s *Switch) Arrive(p *cell.Packet) {
	if p.Input < 0 || p.Input >= s.n {
		panic(fmt.Sprintf("eslip: arrival at invalid input %d", p.Input))
	}
	fanout := p.Dests.Count()
	enqueueOut := -1 // multicast: one entry in the single mc FIFO
	switch {
	case fanout == 0:
		panic("eslip: arrival with empty destination set")
	case fanout == 1:
		out := p.Dests.Min()
		enqueueOut = out
		if s.uniVOQ[p.Input][out].Empty() {
			s.uniOcc[out].Add(p.Input)
		}
		s.uniVOQ[p.Input][out].Push(p)
	default:
		s.mc.Push(p)
	}
	s.payloads[p.Input]++
	s.pending += int64(fanout)
	if s.probe.On() {
		s.probe.Arrival(p, fanout)
		s.probe.Enqueue(p, enqueueOut)
		s.probe.Occupancy(p.Input, s.payloads[p.Input])
	}
}

// Step runs one slot of iterative scheduling and transfer.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	n, w := s.n, len(s.freeIn)
	destset.FillPorts(s.freeIn, n)
	destset.FillPorts(s.freeOut, n)
	clear(s.served)
	preferMulticast := slot%2 == 0
	rounds := 0
	busy := s.BufferedCells() > 0

	for iter := 0; ; iter++ {
		if s.probe.On() {
			s.observeRequests(slot, iter)
		}
		// Grant phase: each free output finds its multicast candidate
		// (the shared pointer) and its unicast candidate (its own
		// pointer, the round-robin priority encoder over occupancy ∩
		// free inputs), keeps the class this slot prefers when it has
		// both, and marks its grant in the granted input's row.
		anyGrant := false
		for wo, ov := range s.freeOut {
			for ; ov != 0; ov &= ov - 1 {
				out := wo<<6 + bits.TrailingZeros64(ov)
				rows, in := s.mcBy, s.mcGrant(out)
				uni := destset.RotatedFirst(s.uniOcc[out].Words(), s.freeIn, s.grantPtr[out])
				if uni >= 0 && (in < 0 || !preferMulticast) {
					rows, in = s.uniBy, uni
				}
				if in < 0 {
					continue
				}
				rows[in*w+wo] |= 1 << uint(out&63)
				s.granted[in>>6] |= 1 << uint(in&63)
				anyGrant = true
			}
		}
		if !anyGrant {
			break
		}

		// Accept phase, granted inputs in ascending order: an input with
		// multicast grants for its HOL packet takes all of them (one
		// payload, fanout splitting for the rest); otherwise it accepts
		// one unicast grant round-robin from its accept pointer. Grants
		// an input leaves untaken keep their outputs free.
		for wi, gv := range s.granted {
			for ; gv != 0; gv &= gv - 1 {
				in := wi<<6 + bits.TrailingZeros64(gv)
				s.freeIn[wi] &^= 1 << uint(in&63)
				took := false
				mrow := s.mcBy[in*w : in*w+w]
				for wo, ov := range mrow {
					for ; ov != 0; ov &= ov - 1 {
						s.acceptMulticast(slot, iter, in, wo<<6+bits.TrailingZeros64(ov), deliver)
						took = true
					}
				}
				clear(mrow)
				urow := s.uniBy[in*w : in*w+w]
				if !took {
					s.acceptUnicast(slot, iter, in, destset.RotatedFirst(urow, urow, s.acceptPtr[in]), deliver)
				}
				clear(urow)
			}
			s.granted[wi] = 0
		}
		rounds++
	}

	// Post-transmission: fully-served multicast packets leave their
	// queues and are released (a residue stays at HOL for fanout
	// splitting), and the shared pointer advances past its input only
	// when that input's packet completed — ESLIP's completion rule,
	// which lets a split packet keep top priority until its residue
	// drains.
	for in := 0; in < n; in++ {
		if s.mc.Advance(in) {
			s.payloads[in]--
			if in == s.mcPtr {
				s.mcPtr = (s.mcPtr + 1) % n
			}
		} else if s.probe.On() && s.served[in] > 0 {
			// Partially served: the residue stays at HOL (fanout
			// splitting) and competes again next slot.
			e := s.mc.Front(in)
			s.probe.Split(slot, in, e.Remaining.Count(), e.P.Arrival, int64(e.P.ID))
		}
	}

	s.lastRounds = rounds
	if busy {
		s.activeSlots++
		s.totalRounds += int64(rounds)
		if s.probe.On() {
			s.probe.Rounds(rounds)
		}
	}
}

// mcGrant returns the free input closest to the shared multicast
// pointer, wrapping around, whose HOL multicast packet still wants out,
// or -1.
func (s *Switch) mcGrant(out int) int {
	occ := s.mc.Occupied()
	for in := occ.NextOneFrom(s.mcPtr); in >= 0; in = occ.NextOneFrom(in + 1) {
		if s.mcWants(in, out) {
			return in
		}
	}
	for in := occ.NextOneFrom(0); in >= 0 && in < s.mcPtr; in = occ.NextOneFrom(in + 1) {
		if s.mcWants(in, out) {
			return in
		}
	}
	return -1
}

// mcWants reports whether input in, holding a multicast packet, is
// free and its HOL packet's residual fanout includes out.
func (s *Switch) mcWants(in, out int) bool {
	return has(s.freeIn, in) && s.mc.Front(in).Remaining.Contains(out)
}

// acceptMulticast delivers the copy for out of input in's HOL multicast
// packet.
func (s *Switch) acceptMulticast(slot int64, iter, in, out int, deliver func(cell.Delivery)) {
	e := s.mc.Front(in)
	s.freeOut[out>>6] &^= 1 << uint(out&63)
	d := e.Serve(out, slot)
	deliver(d)
	s.served[in]++
	s.pending--
	if s.probe.On() {
		s.observeDelivery(slot, iter, in, out, e.P, d.Last)
	}
}

// acceptUnicast delivers and releases the HOL cell of VOQ(in, out)
// and, on the first iteration, moves both pointers past the match.
func (s *Switch) acceptUnicast(slot int64, iter, in, out int, deliver func(cell.Delivery)) {
	p := s.uniVOQ[in][out].Pop()
	if s.uniVOQ[in][out].Empty() {
		s.uniOcc[out].Remove(in)
	}
	s.payloads[in]--
	s.pending--
	s.freeOut[out>>6] &^= 1 << uint(out&63)
	deliver(cell.Delivery{ID: p.ID, In: in, Out: out, Slot: slot, Arrival: p.Arrival, Last: true, Done: true, Fanout: 1})
	if s.probe.On() {
		s.observeDelivery(slot, iter, in, out, p, true)
	}
	if s.release != nil {
		s.release(p)
	}
	if iter == 0 {
		s.grantPtr[out] = (in + 1) % s.n
		s.acceptPtr[in] = (out + 1) % s.n
	}
}

// has reports whether bit i is set in a port bitmap.
func has(words []uint64, i int) bool { return words[i>>6]&(1<<uint(i&63)) != 0 }

// observeRequests reports this iteration's implicit ESLIP requests —
// every free input's HOL multicast packet requests its remaining free
// outputs, and every non-empty unicast VOQ with a free input and free
// output requests that output. Only called with an observer attached.
func (s *Switch) observeRequests(slot int64, iter int) {
	s.mc.Occupied().ForEach(func(in int) {
		if !has(s.freeIn, in) {
			return
		}
		e := s.mc.Front(in)
		e.Remaining.ForEach(func(out int) {
			if has(s.freeOut, out) {
				s.probe.Request(slot, iter, in, out, e.P.Arrival, int64(e.P.ID))
			}
		})
	})
	for wo, ov := range s.freeOut {
		for ; ov != 0; ov &= ov - 1 {
			out := wo<<6 + bits.TrailingZeros64(ov)
			for wi, iv := range s.uniOcc[out].Words() {
				for iv &= s.freeIn[wi]; iv != 0; iv &= iv - 1 {
					in := wi<<6 + bits.TrailingZeros64(iv)
					p := s.uniVOQ[in][out].Front()
					s.probe.Request(slot, iter, in, out, p.Arrival, int64(p.ID))
				}
			}
		}
	}
}

// observeDelivery reports one accepted copy: its grant — the accepted
// match, grant and accept collapsed, stamped with the packet's arrival,
// ESLIP's implicit age — and its departure. Only called with an
// observer attached.
func (s *Switch) observeDelivery(slot int64, iter, in, out int, p *cell.Packet, last bool) {
	s.probe.Grant(slot, iter, in, out, p.Arrival, int64(p.ID))
	s.probe.Departure(slot, in, out, p.Arrival, int64(p.ID), last)
}

// SetReleaseHook registers fn to receive each packet once its last copy
// has left — a unicast cell's as it crosses, a multicast packet's when
// it leaves the head of its queue — from Step, never from Arrive. The
// switch holds no reference to it afterwards.
func (s *Switch) SetReleaseHook(fn func(*cell.Packet)) {
	s.release = fn
	s.mc.SetReleaseHook(fn)
}

// LastRounds reports the previous slot's iteration count.
func (s *Switch) LastRounds() int { return s.lastRounds }

// QueueSizes reports per-input buffered payloads: multicast packets
// (stored once) plus unicast cells — comparable to the paper's
// data-cell metric.
func (s *Switch) QueueSizes(dst []int) []int {
	copy(dst, s.payloads)
	return dst
}

// InputBacklog returns QueueSizes' value for one input.
func (s *Switch) InputBacklog(in int) int { return s.payloads[in] }

// BufferedCells returns the total buffered payloads.
func (s *Switch) BufferedCells() int64 {
	var total int64
	for _, p := range s.payloads {
		total += int64(p)
	}
	return total
}

// BufferedBytes accounts payloads once per packet (multicast) or cell
// (unicast) plus an address-cell-sized bookkeeping entry per pending
// destination.
func (s *Switch) BufferedBytes() int64 {
	return s.BufferedCells()*cell.PayloadSize + s.pending*cell.AddressCellSize
}
