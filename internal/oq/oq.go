// Package oq implements an output-queued switch with FIFO output
// queues, the paper's "ultimate performance benchmark" (OQFIFO).
//
// An OQ switch moves every arriving cell to its destination output
// queue immediately — for that it needs a fabric and output memories
// running N times faster than the line rate, the speedup that makes
// the architecture unscalable (Section I) — and each output then
// transmits one cell per slot in FIFO order. Multicast costs nothing
// at the input: a fanout-k packet simply enters k output queues in the
// same slot, but each of those queues stores its own copy, which is why
// FIFOMS can beat OQFIFO on buffer space at high fanout (Figure 7).
package oq

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/fifoq"
	"voqsim/internal/idwin"
	"voqsim/internal/obs"
)

// queuedCopy is one packet copy waiting in an output queue.
type queuedCopy struct {
	id      cell.PacketID
	in      int
	arrival int64
}

// pktSent is the one per-packet counter of the output stage: the
// packet's fanout and how many of its copies the output lines have
// sent. Copies of one packet leave from different output queues in no
// fixed order, so this is how the switch knows which copy completes
// the packet.
type pktSent struct {
	fanout int32
	sent   int32
}

// Switch is the output-queued FIFO switch. It satisfies the
// simulation engine's Switch interface.
type Switch struct {
	n      int
	queues []fifoq.Queue[queuedCopy] // one FIFO per output
	pkts   idwin.Window[pktSent]     // packets with a copy not yet sent

	// Packets that arrived since the last Step. The copies hold all
	// the switch needs, so the packets go back to the release hook at
	// the end of the next Step — not from Arrive, whose caller may
	// still read them.
	arrived []*cell.Packet
	release func(*cell.Packet)

	probe obs.Probe // observability (DESIGN.md §8), off in ordinary runs
}

// New returns an n x n output-queued switch.
func New(n int) *Switch {
	if n <= 0 {
		panic("oq: non-positive switch size")
	}
	return &Switch{n: n, queues: make([]fifoq.Queue[queuedCopy], n)}
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Name identifies the algorithm in reports.
func (s *Switch) Name() string { return "oqfifo" }

// Arrive moves the packet's copies straight into the destination
// output queues (the speedup-N transfer).
func (s *Switch) Arrive(p *cell.Packet) {
	if p.Input < 0 || p.Input >= s.n {
		panic(fmt.Sprintf("oq: arrival at invalid input %d", p.Input))
	}
	if p.Dests.Count() == 0 {
		panic("oq: arrival with empty destination set")
	}
	fanout := p.Fanout()
	o, _ := s.pkts.Ensure(p.ID)
	o.fanout = int32(fanout)
	c := queuedCopy{id: p.ID, in: p.Input, arrival: p.Arrival}
	p.Dests.ForEach(func(out int) { s.queues[out].Push(c) })
	if s.probe.On() {
		s.probe.Arrival(p, fanout)
		s.probe.EnqueueEach(p, fanout)
		p.Dests.ForEach(func(out int) { s.probe.Occupancy(out, s.queues[out].Len()) })
	}
	if s.release != nil {
		s.arrived = append(s.arrived, p)
	}
}

// Push queues the copy d names at output d.Out; its ID, input and
// arrival are kept, and the first copy of a packet records its fanout.
// A CIOQ output stage pushes a packet's copies over several slots;
// Arrive queues all of them at once.
func (s *Switch) Push(d cell.Delivery) {
	if o, _ := s.pkts.Ensure(d.ID); o.fanout == 0 {
		o.fanout = d.Fanout
	}
	s.queues[d.Out].Push(queuedCopy{id: d.ID, in: d.In, arrival: d.Arrival})
}

// SetObserver attaches (or detaches, with nil) the observability
// layer; call it before the run starts. The occupancy gauges are per
// output queue, the ports QueueSizes reports.
func (s *Switch) SetObserver(o *obs.Observer) { s.probe.Attach(o, s.n) }

// SetReleaseHook registers fn to receive each packet at the end of the
// Step after its arrival — from Step, never from Arrive. Its copies
// were taken at Arrive, so the switch holds no reference afterwards.
func (s *Switch) SetReleaseHook(fn func(*cell.Packet)) { s.release = fn }

// Step transmits the head-of-line cell of every non-empty output queue.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	for out := 0; out < s.n; out++ {
		if s.queues[out].Empty() {
			continue
		}
		c := s.queues[out].Pop()
		o := s.pkts.Lookup(c.id)
		o.sent++
		fanout, done := o.fanout, o.sent == o.fanout
		if done {
			s.pkts.Release(c.id)
		}
		deliver(cell.Delivery{ID: c.id, In: c.in, Out: out, Slot: slot, Arrival: c.arrival,
			Done: done, Fanout: fanout})
		if s.probe.On() {
			s.probe.Departure(slot, c.in, out, c.arrival, int64(c.id), done)
		}
	}
	if s.release != nil {
		for _, p := range s.arrived {
			s.release(p)
		}
	}
	s.arrived = s.arrived[:0]
}

// QueueSizes fills dst with the per-*output* queue lengths, the
// natural queue-size metric for this architecture.
func (s *Switch) QueueSizes(dst []int) []int {
	for i := range s.queues {
		dst[i] = s.queues[i].Len()
	}
	return dst
}

// InputBacklog returns QueueSizes' value for one port: the length of
// output queue port.
func (s *Switch) InputBacklog(port int) int { return s.queues[port].Len() }

// BufferedCells returns the total cells across output queues.
func (s *Switch) BufferedCells() int64 {
	var total int64
	for i := range s.queues {
		total += int64(s.queues[i].Len())
	}
	return total
}

// BufferedBytes returns the buffer memory in use: every output-queue
// entry stores a full payload copy — a fanout-k packet costs k blocks,
// the duplication the paper's queue structure avoids at the inputs.
func (s *Switch) BufferedBytes() int64 {
	return s.BufferedCells() * cell.PayloadSize
}
