// Package core implements the paper's two contributions: the multicast
// VOQ queue structure of Section II (address cells in N virtual output
// queues per input, data cells stored once in a shared buffer) and the
// FIFOMS scheduling algorithm of Section III.
//
// The queue structure is embodied by Switch, which also hosts the
// per-slot pipeline (preprocess arrivals, arbitrate, set the crossbar,
// transfer, post-process). The arbitration step is pluggable through
// the Arbiter interface so that VOQ-based baselines (iSLIP, PIM) run on
// the identical substrate and differ only in how they match inputs to
// outputs — exactly the comparison the paper's evaluation makes.
//
// The switch holds the observability binding (an obs.Probe, attached
// with SetObserver): the switch reports the packet-lifecycle events
// (arrival, enqueue, departure, fanout split) and arbiters report the
// per-round arbitration events (request, grant) through Switch.Probe.
// With no observer attached — the default — every hook is one
// never-taken branch; alloc_guard_test.go pins that path at zero
// allocations. See DESIGN.md §8.
package core

import "voqsim/internal/xrand"

// PreprocessMode selects how an arriving multicast packet is expanded
// into cells (Section II vs. the iSLIP baseline's convention).
type PreprocessMode int

const (
	// ModeShared is the paper's structure: one data cell regardless of
	// fanout, plus one address cell per destination pointing at it.
	ModeShared PreprocessMode = iota
	// ModeCopied is the traditional multicast-as-unicast expansion used
	// by the iSLIP/PIM baselines: every destination gets its own
	// independent data cell (fanout 1) and address cell. Buffer
	// occupancy then grows with fanout, which is the space cost the
	// paper's queue-size plots expose.
	ModeCopied
)

// String returns "shared" or "copied".
func (m PreprocessMode) String() string {
	if m == ModeShared {
		return "shared"
	}
	return "copied"
}

// Matching is one slot's arbitration result: for every output port,
// the input granted to drive it (or None). A single input may appear
// for several outputs — that is a multicast grant and is only legal in
// ModeShared, where those grants must all belong to one data cell.
type Matching struct {
	// OutIn[out] is the granted input for out, or None.
	OutIn []int
	// Rounds is the number of productive request/grant iterations the
	// arbiter ran before converging (Figure 5's metric).
	Rounds int
}

// None marks an output that received no grant in a slot.
const None = -1

// NewMatching returns an empty matching for an n-port switch.
func NewMatching(n int) *Matching {
	m := &Matching{OutIn: make([]int, n)}
	m.Clear()
	return m
}

// Clear resets the matching for reuse in the next slot.
func (m *Matching) Clear() {
	for i := range m.OutIn {
		m.OutIn[i] = None
	}
	m.Rounds = 0
}

// Arbiter computes one slot's matching over the VOQ state of a Switch.
// Implementations read the switch through its HOL accessors and must
// not mutate queue contents; the switch performs the transfer.
type Arbiter interface {
	// Name identifies the algorithm in reports, e.g. "fifoms".
	Name() string
	// Mode returns the preprocessing convention the arbiter assumes.
	Mode() PreprocessMode
	// Match fills m with this slot's grants. slot is the current time
	// slot (some arbiters weight by age), and r is the arbiter's
	// private randomness for tie-breaking.
	Match(s *Switch, slot int64, r *xrand.Rand, m *Matching)
}
