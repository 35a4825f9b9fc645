// Package pim implements Parallel Iterative Matching (Anderson, Owicki,
// Saxe and Thacker, ACM TOCS 1993), the randomised ancestor of iSLIP,
// as a core.Arbiter. It serves as a second unicast VOQ baseline for
// the extension experiments.
//
// Each iteration: every unmatched input requests all outputs with a
// queued cell; every unmatched output grants one requesting input
// uniformly at random; every unmatched input accepts one granting
// output uniformly at random. Like iSLIP it runs in ModeCopied,
// treating multicast packets as independent unicast copies.
package pim

import (
	"math/bits"

	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/obs"
	"voqsim/internal/xrand"
)

// Arbiter is the PIM matcher. It is stateless between slots; all
// randomness comes from the switch's arbiter stream.
//
// The grant scan uses the switch's cached per-output occupancy bitmaps
// (Switch.OccOutWords): intersecting them with the free-input word set
// visits only inputs that actually hold a cell for the output, instead
// of probing all N VOQ lengths per output per iteration.
type Arbiter struct {
	// Iterations, if positive, caps iterations per slot; zero iterates
	// to convergence (PIM converges in O(log N) expected iterations).
	Iterations int

	// Scratch, sized together under the single scratchN guard.
	scratchN   int
	inFree     []uint64 // free-input word set
	outFree    []uint64 // free-output word set
	grantTo    []int
	acceptPick []int
	acceptTies []int
}

// New returns a PIM arbiter that iterates to convergence.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string { return "pim" }

// Mode implements core.Arbiter.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeCopied }

func (a *Arbiter) ensure(n int) {
	if a.scratchN == n {
		return
	}
	a.scratchN = n
	a.inFree = make([]uint64, destset.WordsPerRow(n))
	a.outFree = make([]uint64, destset.WordsPerRow(n))
	a.grantTo = make([]int, n)
	a.acceptPick = make([]int, n)
	a.acceptTies = make([]int, n)
}

// Match implements core.Arbiter.
func (a *Arbiter) Match(s *core.Switch, slot int64, r *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	o := s.Probe() // off in ordinary runs
	a.ensure(n)
	destset.FillPorts(a.inFree, n)
	destset.FillPorts(a.outFree, n)
	maxIter := a.Iterations
	if maxIter <= 0 {
		maxIter = n
	}

	for iter := 0; iter < maxIter; iter++ {
		if o.On() {
			a.observeRequests(s, o, slot, iter)
		}
		// Grant: each free output picks uniformly among free inputs
		// with a queued cell for it (single-pass reservoir sampling
		// over the occupancy ∩ free-input words; the ascending scan
		// preserves the RNG draw order of the plain loop).
		for out := range a.grantTo {
			a.grantTo[out] = core.None
		}
		for wo, ov := range a.outFree {
			for ; ov != 0; ov &= ov - 1 {
				out := wo<<6 + bits.TrailingZeros64(ov)
				seen := 0
				for wi, wv := range s.OccOutWords(out) {
					for wv &= a.inFree[wi]; wv != 0; wv &= wv - 1 {
						seen++
						if r.Intn(seen) == 0 {
							a.grantTo[out] = wi<<6 + bits.TrailingZeros64(wv)
						}
					}
				}
			}
		}

		// Accept: each free input picks uniformly among outputs that
		// granted it.
		for in := 0; in < n; in++ {
			a.acceptPick[in] = core.None
			a.acceptTies[in] = 0
		}
		for out := 0; out < n; out++ {
			in := a.grantTo[out]
			if in == core.None {
				continue
			}
			a.acceptTies[in]++
			if r.Intn(a.acceptTies[in]) == 0 {
				a.acceptPick[in] = out
			}
		}

		matched := false
		for in := 0; in < n; in++ {
			out := a.acceptPick[in]
			if out == core.None {
				continue
			}
			m.OutIn[out] = in
			a.inFree[in>>6] &^= 1 << uint(in&63)
			a.outFree[out>>6] &^= 1 << uint(out&63)
			matched = true
			if o.On() {
				// PIM has no scheduling weight; TS is -1. The grant
				// event records the accepted match (grant + accept
				// collapsed), mirroring FIFOMS's standing grants.
				o.Grant(slot, iter, in, out, -1, -1)
			}
		}
		if !matched {
			break
		}
		m.Rounds++
	}
}

// observeRequests reports this iteration's implicit PIM requests —
// every free input requests every free output it holds a cell for.
// Only called with an observer attached.
func (a *Arbiter) observeRequests(s *core.Switch, o *obs.Probe, slot int64, iter int) {
	for wo, ov := range a.outFree {
		for ; ov != 0; ov &= ov - 1 {
			out := wo<<6 + bits.TrailingZeros64(ov)
			for wi, wv := range s.OccOutWords(out) {
				for wv &= a.inFree[wi]; wv != 0; wv &= wv - 1 {
					o.Request(slot, iter, wi<<6+bits.TrailingZeros64(wv), out, -1, -1)
				}
			}
		}
	}
}
