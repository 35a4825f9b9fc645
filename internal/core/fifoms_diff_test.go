package core_test

// Differential test of the word-parallel FIFOMS kernel against the one
// reference kernel in the tree, internal/check/oracle (the paper-prose
// O(N³) transcription). The two must produce bit-identical Matchings
// and Rounds for the same seeds — including identical tie-break RNG
// draw sequences — across both ablation modes and switch sizes. The
// package is external because the oracle imports core; everything used
// here is exported API.

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check/oracle"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

func TestFIFOMSMatchesLegacyKernel(t *testing.T) {
	sizes := []int{2, 3, 4, 5, 7, 8, 13, 16, 24, 32}
	for _, n := range sizes {
		for _, noSplit := range []bool{false, true} {
			n, noSplit := n, noSplit
			// The det=false suffix names the random-tie discipline, the
			// only one the kernel has; the subtest names are kept.
			t.Run(fmt.Sprintf("n=%d/nosplit=%v/det=false", n, noSplit), func(t *testing.T) {
				t.Parallel()
				arb := &core.FIFOMS{NoFanoutSplitting: noSplit}
				ref := &oracle.Arbiter{NoFanoutSplitting: noSplit}
				s := core.NewSwitch(n, arb, xrand.New(uint64(1000+n)))
				lockstep(t, s, arb, ref, uint64(2000+n), 9, 0.5, 0.35, 600)
			})
		}
	}
}

// TestFIFOMSMatchesLegacyWithRoundCap covers the MaxRounds ablation
// path, whose early exit interacts with the later rounds' request
// recomputation.
func TestFIFOMSMatchesLegacyWithRoundCap(t *testing.T) {
	for _, cap := range []int{1, 2, 3} {
		arb := &core.FIFOMS{MaxRounds: cap}
		ref := &oracle.Arbiter{MaxRounds: cap}
		s := core.NewSwitch(8, arb, xrand.New(uint64(77+cap)))
		lockstep(t, s, arb, ref, uint64(88+cap), 5, 0.6, 0.4, 800)
	}
}

// TestFIFOMSReuseAcrossSizes is the regression test for the scratch
// sizing bug: ensure used to compare only len(inputFree), so an
// arbiter whose slices had ever diverged in size could silently alias
// stale scratch. One FIFOMS must schedule correctly when moved across
// switches of different sizes in both directions (N=4 → N=16 → N=4),
// producing the same matchings as a fresh arbiter at each size.
func TestFIFOMSReuseAcrossSizes(t *testing.T) {
	shared := &core.FIFOMS{}
	for _, n := range []int{4, 16, 4, 16} {
		fresh := &core.FIFOMS{}
		s := core.NewSwitch(n, shared, xrand.New(uint64(11*n)))
		lockstep(t, s, shared, fresh, uint64(13*n), 3, 0.5, 0.4, 300)
	}
}

// lockstep drives switch s with random traffic (each input busy with
// probability pBusy per slot, Bernoulli(pDest) destinations) and
// compares arbiters a and b on the identical pre-transfer state every
// slot. Both draw tie-break randomness from streams seeded tieSeed:
// staying in lockstep for the whole run also proves a consumes the RNG
// in exactly b's order.
func lockstep(t *testing.T, s *core.Switch, a, b core.Arbiter, trafficSeed, tieSeed uint64, pBusy, pDest float64, slots int64) {
	t.Helper()
	n := s.Ports()
	r := xrand.New(trafficSeed)
	rA, rB := xrand.New(tieSeed), xrand.New(tieSeed)
	mA, mB := core.NewMatching(n), core.NewMatching(n)
	id := cell.PacketID(0)

	for slot := int64(0); slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if r.Bool(pBusy) {
				d := destset.New(n)
				d.RandomBernoulli(r, pDest)
				if d.Empty() {
					continue
				}
				id++
				s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
			}
		}

		mB.Clear()
		b.Match(s, slot, rB, mB)
		mA.Clear()
		a.Match(s, slot, rA, mA)

		for out := 0; out < n; out++ {
			if mA.OutIn[out] != mB.OutIn[out] {
				t.Fatalf("n=%d slot %d output %d: %s granted %d, %s %d",
					n, slot, out, a.Name(), mA.OutIn[out], b.Name(), mB.OutIn[out])
			}
		}
		if mA.Rounds != mB.Rounds {
			t.Fatalf("n=%d slot %d: %s %d rounds, %s %d",
				n, slot, a.Name(), mA.Rounds, b.Name(), mB.Rounds)
		}

		// Advance the switch one slot to evolve the queue state (Step
		// re-runs its own arbiter internally, which is fine: Match does
		// not mutate queue contents).
		s.Step(slot, func(cell.Delivery) {})
	}
}
