// Package tatra implements the TATRA multicast scheduler (Ahuja,
// Prabhakar and McKeown, IEEE JSAC 1997) on a single-input-queued
// switch, the paper's multicast baseline.
//
// TATRA maps scheduling onto a Tetris-like board: one column per
// output port, time growing upward. When a packet reaches the head of
// its input's single FIFO queue, one block per remaining destination is
// dropped onto the corresponding column, landing on the lowest free
// level of that column. Every time slot the bottom row departs: the
// block at the base of each column is the copy that output receives.
// A packet leaves the head of its queue only when all its blocks have
// departed, so copies may leave in different slots (fanout splitting)
// while the packet's residue keeps its input blocked — the head-of-line
// blocking that caps this architecture's throughput and that the VOQ
// structure of the reproduced paper removes.
//
// Where the original work leaves freedom (the order in which
// simultaneously-new head-of-line packets are placed), this
// implementation rotates the starting input with the slot number, a
// fair policy that preserves TATRA's defining behaviours: per-output
// FCFS departure order, fanout splitting, strict fairness (a placed
// block's departure slot never changes), and HOL blocking with its
// ~0.586 unicast saturation.
package tatra

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/fifoq"
)

// entry is a queued packet together with its not-yet-served
// destinations. Entries are pooled: one leaves its queue with an
// empty remaining set and serves the next arrival.
type entry struct {
	p         *cell.Packet
	remaining *destset.Set
}

// entrySlab is how many entries an empty pool is refilled with.
const entrySlab = 64

// Switch is a single-input-queued switch scheduled by TATRA. It
// satisfies the simulation engine's Switch interface.
type Switch struct {
	n       int
	queues  []fifoq.Queue[*entry] // one FIFO per input
	columns []fifoq.Queue[int]    // Tetris board: per output, inputs in departure order
	placed  []bool                // whether input i's HOL packet is on the board

	free    []*entry           // served entries, reused by Arrive
	release func(*cell.Packet) // SetReleaseHook; nil leaves packets to the GC
}

// New returns an n x n TATRA switch.
func New(n int) *Switch {
	if n <= 0 {
		panic("tatra: non-positive switch size")
	}
	return &Switch{
		n:       n,
		queues:  make([]fifoq.Queue[*entry], n),
		columns: make([]fifoq.Queue[int], n),
		placed:  make([]bool, n),
	}
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Name identifies the algorithm in reports.
func (s *Switch) Name() string { return "tatra" }

// Arrive appends a packet to its input's FIFO queue.
func (s *Switch) Arrive(p *cell.Packet) {
	if p.Input < 0 || p.Input >= s.n {
		panic(fmt.Sprintf("tatra: arrival at invalid input %d", p.Input))
	}
	if p.Dests.Count() == 0 {
		panic("tatra: arrival with empty destination set")
	}
	if len(s.free) == 0 {
		// Refill a slab at a time: an unstable point backs up to 1000*N
		// entries, and one allocation each would dominate its run.
		entries := make([]entry, entrySlab)
		sets := destset.NewSlab(s.n, entrySlab)
		for i := range entries {
			entries[i].remaining = &sets[i]
			s.free = append(s.free, &entries[i])
		}
	}
	k := len(s.free) - 1
	e := s.free[k]
	s.free = s.free[:k]
	e.p = p
	e.remaining.CopyFrom(p.Dests)
	s.queues[p.Input].Push(e)
}

// SetReleaseHook registers fn to receive each packet when it leaves the
// head of its queue with every copy delivered — from Step, never from
// Arrive. The switch holds no reference to it afterwards.
func (s *Switch) SetReleaseHook(fn func(*cell.Packet)) { s.release = fn }

// Step runs one time slot: place newly head-of-line packets on the
// board, let the bottom row depart, and advance fully-served packets.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	// Placement: drop the blocks of every packet that is at the head of
	// its queue but not yet on the board. The starting input rotates
	// with the slot so no input is systematically placed deeper.
	start := int(slot % int64(s.n))
	for k := 0; k < s.n; k++ {
		in := (start + k) % s.n
		if s.placed[in] || s.queues[in].Empty() {
			continue
		}
		e := s.queues[in].Front()
		e.remaining.ForEach(func(out int) {
			s.columns[out].Push(in)
		})
		s.placed[in] = true
	}

	// Departure: the base of every non-empty column leaves.
	for out := 0; out < s.n; out++ {
		if s.columns[out].Empty() {
			continue
		}
		in := s.columns[out].Pop()
		e := s.queues[in].Front()
		if !e.remaining.Contains(out) {
			panic(fmt.Sprintf("tatra: board block (%d,%d) not in packet's remaining fanout", in, out))
		}
		e.remaining.Remove(out)
		deliver(cell.Delivery{ID: e.p.ID, In: in, Out: out, Slot: slot, Arrival: e.p.Arrival, Last: e.remaining.Empty()})
	}

	// Advance: fully served head-of-line packets leave their queues;
	// their successors are placed at the start of the next slot.
	for in := 0; in < s.n; in++ {
		if s.placed[in] && s.queues[in].Front().remaining.Empty() {
			e := s.queues[in].Pop()
			s.placed[in] = false
			if s.release != nil {
				s.release(e.p)
			}
			s.free = append(s.free, e)
		}
	}
}

// QueueSizes fills dst with the per-input packet counts, the queue-size
// metric the paper reports for single-input-queued switches.
func (s *Switch) QueueSizes(dst []int) []int {
	for i := range s.queues {
		dst[i] = s.queues[i].Len()
	}
	return dst
}

// BufferedCells returns the total queued packets across inputs.
func (s *Switch) BufferedCells() int64 {
	var total int64
	for i := range s.queues {
		total += int64(s.queues[i].Len())
	}
	return total
}

// BufferedBytes returns the buffer memory in use: one payload block
// per queued packet (the single-queue structure stores no address
// cells; residual fanout state is a per-HOL-packet bitmap whose cost
// is counted like one address cell per packet).
func (s *Switch) BufferedBytes() int64 {
	return s.BufferedCells() * (cell.PayloadSize + cell.AddressCellSize)
}
