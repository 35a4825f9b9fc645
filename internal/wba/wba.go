// Package wba implements a Weight-Based Arbitration multicast
// scheduler in the style of WBA (Prabhakar, McKeown and Ahuja, IEEE
// JSAC 1997) on a single-input-queued switch. It is an extension
// baseline beyond the reproduced paper's comparison set: a second
// multicast scheduler on the same architecture as TATRA, useful for
// separating "what the VOQ structure buys" from "what the scheduling
// policy buys".
//
// Every slot, each input computes a weight for its head-of-line packet
// — its age in slots, so older packets weigh more, mirroring WBA's
// fairness lever — and submits a request carrying that weight to every
// output in the packet's remaining fanout. Each output independently
// grants the heaviest request, breaking ties uniformly at random.
// All grants an input collects are for its single HOL packet, so they
// can all be served in one slot (fanout splitting: the residue stays
// at the head and competes again, now older and heavier).
package wba

import (
	"math/bits"

	"voqsim/internal/cell"
	"voqsim/internal/inq"
	"voqsim/internal/obs"
	"voqsim/internal/xrand"
)

// Switch is a single-input-queued switch scheduled by weight-based
// arbitration. It satisfies the simulation engine's Switch interface.
// Its input FIFOs are an inq.Store, which also supplies QueueSizes,
// InputBacklog, BufferedCells, BufferedBytes, ForEachCopy and the
// release hook.
type Switch struct {
	*inq.Store
	n   int
	rnd *xrand.Rand

	// heads caches the HOL entries of the occupied inputs for the
	// duration of one Step: the grant scan then touches only live
	// inputs via word iteration instead of probing all N queues per
	// output.
	heads []*inq.Entry

	probe  obs.Probe // observability (DESIGN.md §8), off in ordinary runs
	served []int     // copies delivered per input this slot (observation only)
}

// New returns an n x n WBA switch drawing tie-break randomness from
// root.
func New(n int, root *xrand.Rand) *Switch {
	if n <= 0 {
		panic("wba: non-positive switch size")
	}
	return &Switch{
		Store: inq.New(n),
		n:     n,
		rnd:   root.Split("wba", 0),
		heads: make([]*inq.Entry, n),
	}
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Name identifies the algorithm in reports.
func (s *Switch) Name() string { return "wba" }

// SetObserver attaches (or detaches, with nil) the observability
// layer; call it before the run starts.
func (s *Switch) SetObserver(o *obs.Observer) {
	s.probe.Attach(o, s.n)
	s.served = nil
	if s.probe.On() {
		s.served = make([]int, s.n)
	}
}

// Arrive appends a packet to its input's FIFO queue.
func (s *Switch) Arrive(p *cell.Packet) {
	s.Push(p)
	if s.probe.On() {
		s.probe.Arrival(p, p.Dests.Count())
		s.probe.Enqueue(p, -1) // one entry in the input's FIFO, whatever the fanout
		s.probe.Occupancy(p.Input, s.Len(p.Input))
	}
}

// Step runs one time slot of request/grant arbitration and transfer.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	// Cache the HOL entry of every live input once per slot; grants
	// mutate remaining in place, never the head pointer.
	occWords := s.Occupied().Words()
	s.Occupied().ForEach(func(in int) { s.heads[in] = s.Front(in) })
	if s.probe.On() {
		s.observeRequests(slot)
	}

	for out := 0; out < s.n; out++ {
		// Grant: heaviest (oldest) HOL request for this output wins;
		// ties are broken uniformly (reservoir sampling). Only live
		// inputs are scanned, in ascending order, so the RNG draw
		// sequence matches the plain all-inputs loop.
		best := int64(-1)
		chosen := -1
		ties := 0
		for wi, wv := range occWords {
			base := wi << 6
			for wv != 0 {
				in := base + bits.TrailingZeros64(wv)
				wv &= wv - 1
				e := s.heads[in]
				if !e.Remaining.Contains(out) {
					continue
				}
				age := slot - e.P.Arrival
				switch {
				case age > best:
					best, chosen, ties = age, in, 1
				case age == best:
					ties++
					if s.rnd.Intn(ties) == 0 {
						chosen = in
					}
				}
			}
		}
		if chosen < 0 {
			continue
		}
		e := s.heads[chosen]
		d := e.Serve(out, slot)
		deliver(d)
		if s.probe.On() {
			s.served[chosen]++
			// WBA's single arbitration pass is round 0; TS records the
			// winning packet's arrival (its age is its weight).
			s.probe.Grant(slot, 0, chosen, out, e.P.Arrival, int64(e.P.ID))
			s.probe.Departure(slot, chosen, out, e.P.Arrival, int64(e.P.ID), d.Last)
		}
	}

	// Advance and release fully served head-of-line packets, after the
	// last trace event that reads them.
	for in := 0; in < s.n; in++ {
		if s.probe.On() && s.served[in] > 0 {
			if e := s.heads[in]; !e.Remaining.Empty() {
				// Partially served: the residue stays at HOL (fanout
				// splitting) and competes again next slot, older.
				s.probe.Split(slot, in, e.Remaining.Count(), e.P.Arrival, int64(e.P.ID))
			}
			s.served[in] = 0
		}
		s.heads[in] = nil
		s.Advance(in)
	}
}

// observeRequests reports this slot's implicit WBA requests — every
// live input's HOL packet requests all of its remaining destinations.
// Only called with an observer attached.
func (s *Switch) observeRequests(slot int64) {
	s.Occupied().ForEach(func(in int) {
		e := s.heads[in]
		e.Remaining.ForEach(func(out int) {
			s.probe.Request(slot, 0, in, out, e.P.Arrival, int64(e.P.ID))
		})
	})
}
