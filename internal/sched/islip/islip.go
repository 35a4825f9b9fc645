// Package islip implements the iSLIP scheduling algorithm (McKeown,
// IEEE/ACM ToN 1999) as a core.Arbiter, the paper's VOQ unicast
// baseline.
//
// iSLIP is an iterative three-step matcher with rotating priorities.
// In each iteration every unmatched input requests all outputs whose
// VOQ is non-empty; every unmatched output grants the requesting input
// closest (clockwise) to its grant pointer; every unmatched input
// accepts the granting output closest to its accept pointer. Pointers
// advance one position past the matched partner, and — the "i" of
// iSLIP — only when the grant was accepted in the *first* iteration,
// which is what desynchronises the pointers and yields 100% throughput
// under admissible uniform unicast traffic.
//
// Following the paper's evaluation setup, iSLIP schedules a multicast
// packet "as separate (independent) unicast packets": it runs in
// ModeCopied, so a fanout-k arrival occupies k data cells and each copy
// is matched on its own. The cost in buffer space and multicast delay
// relative to FIFOMS is exactly what Figures 4, 7 and 8 expose.
package islip

import (
	"math/bits"

	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// Arbiter is the iSLIP matcher. Its pointer state persists across
// slots; create one per switch with New.
//
// The matcher is Tiny Tera's round-robin priority encoders over request
// bitmaps (DESIGN.md §7): an output's requests are the switch's cached
// occupancy column (Switch.OccOutWords) masked by the free-input set,
// and its grant is the first set bit at or after its grant pointer,
// wrapping around. An input's accept is the same rotated scan of the
// row of outputs that granted it.
type Arbiter struct {
	// Iterations, if positive, caps the iterations per slot; zero
	// iterates to convergence, which for iSLIP takes at most N rounds
	// (and on average about log2 N).
	Iterations int

	grantPtr  []int
	acceptPtr []int

	// Per-slot scratch, sized with the pointers by ensure.
	inFree    []uint64 // bitmap over inputs not yet matched
	outFree   []uint64 // bitmap over outputs not yet matched
	grantedBy []uint64 // per input, a row over the outputs that granted it
	granted   []int    // inputs with a non-empty grantedBy row
}

// New returns an iSLIP arbiter that iterates to convergence.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string { return "islip" }

// Mode implements core.Arbiter: multicast handled as independent
// unicast copies.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeCopied }

func (a *Arbiter) ensure(n int) {
	if len(a.grantPtr) == n {
		return
	}
	w := destset.WordsPerRow(n)
	a.grantPtr = make([]int, n)
	a.acceptPtr = make([]int, n)
	a.inFree = make([]uint64, w)
	a.outFree = make([]uint64, w)
	a.grantedBy = make([]uint64, n*w)
	a.granted = make([]int, 0, n)
}

// Match implements core.Arbiter.
func (a *Arbiter) Match(s *core.Switch, _ int64, _ *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	a.ensure(n)
	w := len(a.inFree)
	destset.FillPorts(a.inFree, n)
	destset.FillPorts(a.outFree, n)
	maxIter := a.Iterations
	if maxIter <= 0 {
		maxIter = n
	}

	for iter := 0; iter < maxIter; iter++ {
		// Grant step: each unmatched output picks, round-robin from its
		// grant pointer, the first unmatched input with a cell for it.
		// (Requests are implicit: input i requests output j iff VOQ(i,j)
		// is non-empty.)
		for wi, ov := range a.outFree {
			for ov != 0 {
				out := wi<<6 + bits.TrailingZeros64(ov)
				ov &= ov - 1
				in := destset.RotatedFirst(s.OccOutWords(out), a.inFree, a.grantPtr[out])
				if in < 0 {
					continue
				}
				row := a.grantedBy[in*w : in*w+w]
				if isZero(row) {
					a.granted = append(a.granted, in)
				}
				row[out>>6] |= 1 << uint(out&63)
			}
		}
		if len(a.granted) == 0 {
			break
		}

		// Accept step: each granted input picks, round-robin from its
		// accept pointer, the first output that granted it. Every grant
		// went to a distinct free input's row, so the accepts are
		// independent and their order is immaterial.
		for _, in := range a.granted {
			row := a.grantedBy[in*w : in*w+w]
			out := destset.RotatedFirst(row, row, a.acceptPtr[in])
			clear(row)
			m.OutIn[out] = in
			a.inFree[in>>6] &^= 1 << uint(in&63)
			a.outFree[out>>6] &^= 1 << uint(out&63)
			if iter == 0 {
				a.grantPtr[out] = (in + 1) % n
				a.acceptPtr[in] = (out + 1) % n
			}
		}
		a.granted = a.granted[:0]
		m.Rounds++
	}
}

func isZero(row []uint64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}
