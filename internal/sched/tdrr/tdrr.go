// Package tdrr implements the basic Two-Dimensional Round-Robin
// scheduler (LaMaire and Serpanos, IEEE/ACM ToN 1994), reference [9]
// of the reproduced paper, as a core.Arbiter.
//
// 2DRR views the backlog as an N x N request matrix (input i requests
// output j iff VOQ(i, j) is non-empty) and serves it along
// generalised diagonals: diagonal d is the set of matrix cells
// {(i, (i+d) mod N)}, whose cells are pairwise non-conflicting, so a
// whole diagonal can be granted at once. Each slot the N diagonals
// are examined in an order that rotates with the slot number, giving
// every diagonal — and therefore every (input, output) pair — top
// priority once every N slots, which is what provides fairness without
// per-port pointers.
//
// Like iSLIP and PIM it is a unicast matcher and runs in ModeCopied:
// multicast packets are expanded into independent unicast copies at
// arrival.
package tdrr

import (
	"math/bits"

	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// Arbiter is the 2DRR matcher. Create one per switch with New.
type Arbiter struct {
	inFree  []uint64 // bitmap over inputs not yet matched
	outFree []uint64 // bitmap over outputs not yet matched
}

// New returns a 2DRR arbiter.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string { return "2drr" }

// Mode implements core.Arbiter.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeCopied }

func (a *Arbiter) ensure(n int) {
	if w := destset.WordsPerRow(n); len(a.inFree) != w {
		a.inFree = make([]uint64, w)
		a.outFree = make([]uint64, w)
	}
}

// Match implements core.Arbiter. Rounds reports the number of
// diagonals that contributed at least one grant this slot.
//
// Diagonal d visits only the inputs still free, in ascending order,
// and probes the one cell (in, in+d mod N) against the free-output
// set and the input's occupancy row. The cells of one diagonal never
// conflict, so granting during the walk cannot change it; once every
// input is matched, later diagonals could grant nothing, and the scan
// stops.
func (a *Arbiter) Match(s *core.Switch, slot int64, _ *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	a.ensure(n)
	destset.FillPorts(a.inFree, n)
	destset.FillPorts(a.outFree, n)

	free := n
	d := int(slot % int64(n))
	for k := 0; k < n && free > 0; k++ {
		granted := false
		for wi, iv := range a.inFree {
			for ; iv != 0; iv &= iv - 1 {
				in := wi<<6 + bits.TrailingZeros64(iv)
				out := in + d
				if out >= n {
					out -= n
				}
				bit := uint64(1) << uint(out&63)
				if a.outFree[out>>6]&bit == 0 || s.OccInWords(in)[out>>6]&bit == 0 {
					continue
				}
				m.OutIn[out] = in
				a.inFree[wi] &^= 1 << uint(in&63)
				a.outFree[out>>6] &^= bit
				free--
				granted = true
			}
		}
		if granted {
			m.Rounds++
		}
		if d++; d == n {
			d = 0
		}
	}
}
