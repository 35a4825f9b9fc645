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
	"voqsim/internal/fifoq"
	"voqsim/internal/inq"
)

// Switch is a single-input-queued switch scheduled by TATRA. It
// satisfies the simulation engine's Switch interface. Its input FIFOs
// are an inq.Store, which also supplies QueueSizes, InputBacklog,
// BufferedCells, BufferedBytes, ForEachCopy and the release hook.
type Switch struct {
	*inq.Store
	n       int
	columns []fifoq.Queue[int] // Tetris board: per output, inputs in departure order
	placed  []bool             // whether input i's HOL packet is on the board
}

// New returns an n x n TATRA switch.
func New(n int) *Switch {
	if n <= 0 {
		panic("tatra: non-positive switch size")
	}
	return &Switch{
		Store:   inq.New(n),
		n:       n,
		columns: make([]fifoq.Queue[int], n),
		placed:  make([]bool, n),
	}
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Name identifies the algorithm in reports.
func (s *Switch) Name() string { return "tatra" }

// Arrive appends a packet to its input's FIFO queue.
func (s *Switch) Arrive(p *cell.Packet) { s.Push(p) }

// Step runs one time slot: place newly head-of-line packets on the
// board, let the bottom row depart, and advance fully-served packets.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	// Placement: drop the blocks of every packet that is at the head of
	// its queue but not yet on the board. The starting input rotates
	// with the slot so no input is systematically placed deeper.
	start := int(slot % int64(s.n))
	for k := 0; k < s.n; k++ {
		in := (start + k) % s.n
		if s.placed[in] || s.Len(in) == 0 {
			continue
		}
		s.Front(in).Remaining.ForEach(func(out int) {
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
		e := s.Front(in)
		if !e.Remaining.Contains(out) {
			panic(fmt.Sprintf("tatra: board block (%d,%d) not in packet's remaining fanout", in, out))
		}
		deliver(e.Serve(out, slot))
	}

	// Advance: fully served head-of-line packets leave their queues and
	// are released; their successors are placed at the start of the
	// next slot.
	for in := 0; in < s.n; in++ {
		if s.placed[in] && s.Advance(in) {
			s.placed[in] = false
		}
	}
}
