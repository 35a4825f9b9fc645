// Package oracle is a deliberately naive reference implementation of
// the FIFOMS arbitration of Pan & Yang §III, transcribed line-for-line
// from the paper's prose with no regard for speed.
//
// It exists purely as the trusted side of the differential harness in
// internal/check: the production word-parallel kernel (core/fifoms.go)
// must produce bit-identical matchings — and therefore bit-identical
// delivery streams — on the same seeds. To make that comparison
// meaningful the oracle consumes tie-breaking randomness in exactly the
// paper's order (ascending outputs, ascending inputs, one reservoir
// draw per equal-timestamp candidate after the first), which is also
// the order the production kernels are pinned to.
//
// It is the only reference kernel in the tree, so it speaks the same
// two ablation modes as core.FIFOMS (MaxRounds, NoFanoutSplitting): the
// matching-level differential in internal/core and the delivery-level
// one in internal/check both compare against it.
//
// Do not optimise this file. Its O(N³)-per-slot rescans of every VOQ
// head through the virtual HOL accessor are the point: nothing here is
// clever enough to hide a bug that the fast kernel might share.
package oracle

import (
	"math"

	"voqsim/internal/core"
	"voqsim/internal/xrand"
)

// Arbiter is the reference FIFOMS arbiter. The zero value is the
// paper's algorithm and is ready to use; it keeps no state between
// slots. The two fields mirror core.FIFOMS's ablation modes.
type Arbiter struct {
	// MaxRounds, if positive, caps the request/grant rounds per slot.
	MaxRounds int
	// NoFanoutSplitting makes an input request only when every
	// destination of its oldest packet is free, and withdraws its
	// grants unless every requested output granted.
	NoFanoutSplitting bool
}

// New returns a reference arbiter for the paper's algorithm.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string {
	if a.NoFanoutSplitting {
		return "fifoms-oracle-nosplit"
	}
	return "fifoms-oracle"
}

// Mode implements core.Arbiter: the paper's shared-data-cell structure.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeShared }

// Match implements core.Arbiter by iterating the paper's request/grant
// rounds until no output can grant (§III Table 2) or MaxRounds is hit.
func (a *Arbiter) Match(s *core.Switch, _ int64, r *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	// Fresh per-call state: clarity over speed, by design.
	inputFree := make([]bool, n)
	outputFree := make([]bool, n)
	minTS := make([]int64, n)
	granted := make([]int, n)
	for i := 0; i < n; i++ {
		inputFree[i] = true
		outputFree[i] = true
	}

	for round := 0; a.MaxRounds <= 0 || round < a.MaxRounds; round++ {
		// Request step: every unmatched input finds the minimum HOL
		// time stamp among its VOQs for still-free outputs, and
		// requests every such output ("sends requests for all the
		// address cells with this time stamp"). Without fanout
		// splitting the minimum is over all outputs — the oldest packet
		// whole — and the request is dropped below unless all of them
		// are free.
		for in := 0; in < n; in++ {
			minTS[in] = -1
			if !inputFree[in] {
				continue
			}
			best := int64(math.MaxInt64)
			for out := 0; out < n; out++ {
				if !a.NoFanoutSplitting && !outputFree[out] {
					continue
				}
				if ts := s.HOLTime(in, out); ts < best {
					best = ts
				}
			}
			if best != math.MaxInt64 {
				minTS[in] = best
			}
		}
		if a.NoFanoutSplitting {
			free := func(out int) bool { return outputFree[out] }
			for in := 0; in < n; in++ {
				if minTS[in] >= 0 && !allRequested(s, in, minTS[in], free) {
					minTS[in] = -1
				}
			}
		}

		// Grant step: every free output grants the request with the
		// smallest time stamp, breaking ties uniformly at random. The
		// scan is ascending in input order with a reservoir draw on
		// every equal-timestamp candidate after the first — the draw
		// discipline the production kernels are pinned to.
		for out := 0; out < n; out++ {
			granted[out] = core.None
			if !outputFree[out] {
				continue
			}
			bestTS := int64(math.MaxInt64)
			ties := 0
			for in := 0; in < n; in++ {
				if minTS[in] < 0 {
					continue
				}
				ts := s.HOLTime(in, out)
				if ts != minTS[in] {
					continue // this input did not request this output
				}
				switch {
				case ts < bestTS:
					bestTS = ts
					granted[out] = in
					ties = 1
				case ts == bestTS:
					ties++
					if r.Intn(ties) == 0 {
						granted[out] = in
					}
				}
			}
		}
		if !anyGranted(granted) {
			return
		}

		// All-or-nothing delivery: an input granted only some of the
		// outputs it requested gives all of them back. A round whose
		// grants were all withdrawn still counts, and ends the slot
		// (the next round would repeat it).
		if a.NoFanoutSplitting {
			for in := 0; in < n; in++ {
				mine := func(out int) bool { return granted[out] == in }
				if minTS[in] >= 0 && !allRequested(s, in, minTS[in], mine) {
					for out := 0; out < n; out++ {
						if granted[out] == in {
							granted[out] = core.None
						}
					}
				}
			}
			if !anyGranted(granted) {
				m.Rounds++
				return
			}
		}

		// Accept is implicit in FIFOMS (every grant serves the same
		// oldest packet of the input): reserve the matched ports.
		for out := 0; out < n; out++ {
			in := granted[out]
			if in == core.None {
				continue
			}
			m.OutIn[out] = in
			outputFree[out] = false
			inputFree[in] = false
		}
		m.Rounds++
	}
}

// anyGranted reports whether any output holds a grant.
func anyGranted(granted []int) bool {
	for _, in := range granted {
		if in != core.None {
			return true
		}
	}
	return false
}

// allRequested reports whether ok holds for every output that input
// in requests at time stamp ts: every VOQ whose HOL cell carries ts
// (they are the copies of one packet).
func allRequested(s *core.Switch, in int, ts int64, ok func(out int) bool) bool {
	for out := 0; out < s.Ports(); out++ {
		if s.HOLTime(in, out) == ts && !ok(out) {
			return false
		}
	}
	return true
}
