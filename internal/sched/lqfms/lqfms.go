// Package lqfms implements Longest-Queue-First Multicast Scheduling,
// a design-alternative ablation for the reproduced paper's central
// choice: FIFOMS coordinates the independent per-output grant
// decisions through *arrival time stamps*; LQFMS keeps the identical
// switch structure, request discipline and iteration but weights by
// *VOQ backlog* instead (queue-length weights are the classic
// throughput-optimal signal from the maximum-weight-matching
// literature [2]).
//
// The comparison isolates what the time-stamp criterion buys: queue
// lengths at the destinations of one multicast packet generally
// differ, so LQFMS's outputs often grant *different* packets where
// FIFOMS's outputs converge on the oldest one — fewer one-slot
// multicast deliveries, more fanout splitting, longer input-oriented
// delay. LQFMS also loses FIFOMS's starvation-freedom: a short queue
// can be outweighed indefinitely. (Delivered throughput stays high —
// backlog weighting is good at that — which is exactly why the
// ablation is interesting: latency and fairness, not raw throughput,
// are where the FIFO rule earns its keep.)
//
// Within one input, candidate cells must still all belong to one
// packet (one data cell per input per slot); LQFMS selects the HOL
// packet of the input's *longest* VOQ among free outputs, then
// requests every free output whose HOL cell is that same packet.
package lqfms

import (
	"math/bits"

	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// Arbiter is the LQFMS matcher. Stateless between slots; create with
// New.
type Arbiter struct {
	// MaxRounds, if positive, caps the request/grant rounds per slot;
	// zero iterates to convergence.
	MaxRounds int

	inFree   []uint64 // bitmap over inputs not yet matched
	outFree  []uint64 // bitmap over outputs not yet matched
	req      []uint64 // bitmap over inputs requesting this round
	chosenTS []int64  // per requesting input: time stamp of the selected packet
}

// New returns an LQFMS arbiter.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string { return "lqfms" }

// Mode implements core.Arbiter: the paper's shared queue structure.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeShared }

func (a *Arbiter) ensure(n int) {
	if len(a.chosenTS) == n {
		return
	}
	w := destset.WordsPerRow(n)
	a.inFree = make([]uint64, w)
	a.outFree = make([]uint64, w)
	a.req = make([]uint64, w)
	a.chosenTS = make([]int64, n)
}

// Match implements core.Arbiter. Both steps scan occupancy bitmaps
// (Switch.OccInWords, Switch.OccOutWords) masked by the free ports, in
// ascending order: an empty VOQ can neither become an input's longest
// queue nor back a grant, so skipping it changes no decision and no
// tie draw.
func (a *Arbiter) Match(s *core.Switch, _ int64, r *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	a.ensure(n)
	destset.FillPorts(a.inFree, n)
	destset.FillPorts(a.outFree, n)
	maxRounds := a.MaxRounds
	if maxRounds <= 0 {
		maxRounds = n
	}

	for round := 0; round < maxRounds; round++ {
		// Request step: each free input picks the packet at the HOL of
		// its longest free-output VOQ (ties to the lower output index)
		// and requests every free output whose HOL is that packet.
		clear(a.req)
		for wi, iv := range a.inFree {
			for ; iv != 0; iv &= iv - 1 {
				in := wi<<6 + bits.TrailingZeros64(iv)
				bestLen := 0
				for wo, ov := range s.OccInWords(in) {
					for ov &= a.outFree[wo]; ov != 0; ov &= ov - 1 {
						out := wo<<6 + bits.TrailingZeros64(ov)
						if l := s.VOQLen(in, out); l > bestLen {
							bestLen = l
							a.chosenTS[in] = s.HOLTime(in, out)
						}
					}
				}
				if bestLen > 0 {
					a.req[wi] |= 1 << uint(in&63)
				}
			}
		}

		// Grant step: each free output grants the request backed by the
		// longest VOQ, ties uniform. The step reads only the requests
		// fixed above, so each grant is committed as it is made.
		anyGrant := false
		for wo, ov := range a.outFree {
			for ; ov != 0; ov &= ov - 1 {
				out := wo<<6 + bits.TrailingZeros64(ov)
				granted, bestLen, ties := core.None, 0, 0
				for wi, iv := range s.OccOutWords(out) {
					for iv &= a.req[wi]; iv != 0; iv &= iv - 1 {
						in := wi<<6 + bits.TrailingZeros64(iv)
						if s.HOLTime(in, out) != a.chosenTS[in] {
							continue // this input's packet has no cell here
						}
						switch l := s.VOQLen(in, out); {
						case l > bestLen:
							bestLen, granted, ties = l, in, 1
						case l == bestLen:
							ties++
							if r.Intn(ties) == 0 {
								granted = in
							}
						}
					}
				}
				if granted == core.None {
					continue
				}
				m.OutIn[out] = granted
				a.outFree[wo] &^= 1 << uint(out&63)
				a.inFree[granted>>6] &^= 1 << uint(granted&63)
				anyGrant = true
			}
		}
		if !anyGrant {
			break
		}
		m.Rounds++
	}
}
