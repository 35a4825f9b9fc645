package islip

import (
	"fmt"
	"slices"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

var nextID cell.PacketID

func mkPacket(in int, arrival int64, n int, dests ...int) *cell.Packet {
	nextID++
	return &cell.Packet{ID: nextID, Input: in, Arrival: arrival, Dests: destset.FromMembers(n, dests...)}
}

func collect(s *core.Switch, slot int64) []cell.Delivery {
	var out []cell.Delivery
	s.Step(slot, func(d cell.Delivery) { out = append(out, d) })
	return out
}

func TestUnicastDelivered(t *testing.T) {
	s := core.NewSwitch(4, New(), xrand.New(1))
	p := mkPacket(0, 0, 4, 2)
	s.Arrive(p)
	ds := collect(s, 0)
	if len(ds) != 1 || ds[0].Out != 2 || ds[0].ID != p.ID {
		t.Fatalf("deliveries %+v", ds)
	}
	if s.BufferedCells() != 0 {
		t.Fatal("buffer not drained")
	}
}

func TestMulticastServedAsSeparateCopies(t *testing.T) {
	// A fanout-3 packet on an otherwise idle switch: iSLIP delivers at
	// most one copy per slot (one accept per input), so the three
	// copies take three slots — this is exactly the multicast penalty
	// FIFOMS avoids.
	s := core.NewSwitch(4, New(), xrand.New(1))
	p := mkPacket(0, 0, 4, 0, 1, 2)
	s.Arrive(p)
	if s.BufferedCells() != 3 {
		t.Fatalf("copied-mode buffer = %d, want 3", s.BufferedCells())
	}
	total := 0
	for slot := int64(0); slot < 3; slot++ {
		ds := collect(s, slot)
		if len(ds) != 1 {
			t.Fatalf("slot %d delivered %d copies, want 1", slot, len(ds))
		}
		total += len(ds)
	}
	if total != 3 || s.BufferedCells() != 0 {
		t.Fatalf("total %d copies, residue %d", total, s.BufferedCells())
	}
}

func TestFullPermutationInOneSlot(t *testing.T) {
	// With every VOQ(i, (i+1) mod n) occupied, iSLIP must find the
	// perfect matching in one slot.
	const n = 8
	s := core.NewSwitch(n, New(), xrand.New(1))
	for in := 0; in < n; in++ {
		s.Arrive(mkPacket(in, 0, n, (in+1)%n))
	}
	ds := collect(s, 0)
	if len(ds) != n {
		t.Fatalf("delivered %d copies, want %d", len(ds), n)
	}
}

func TestPointerDesynchronisation(t *testing.T) {
	// Two inputs permanently loaded for the same two outputs: after the
	// first slot the pointers desynchronise and every later slot must
	// carry a full 2-matching (the property that gives iSLIP 100%
	// throughput under uniform traffic).
	const n = 2
	s := core.NewSwitch(n, New(), xrand.New(1))
	slotCopies := make([]int, 6)
	for slot := int64(0); slot < 6; slot++ {
		for in := 0; in < n; in++ {
			s.Arrive(mkPacket(in, slot, n, 0))
			s.Arrive(mkPacket(in, slot, n, 1))
		}
		slotCopies[slot] = len(collect(s, slot))
	}
	for slot := 1; slot < 6; slot++ {
		if slotCopies[slot] != n {
			t.Fatalf("slot %d carried %d copies, want %d (pointers stayed synchronised)",
				slot, slotCopies[slot], n)
		}
	}
}

func TestIterationCap(t *testing.T) {
	// in0 -> out0; in1 -> {out0 (head), out1}: with one iteration in1
	// may lose out0 and out1 stays idle; to convergence both outputs
	// are served. Arrange arrivals so in1's grant for out0 loses.
	capped := core.NewSwitch(2, &Arbiter{Iterations: 1}, xrand.New(3))
	full := core.NewSwitch(2, New(), xrand.New(3))
	for _, s := range []*core.Switch{capped, full} {
		s.Arrive(mkPacket(0, 0, 2, 0))
		s.Arrive(mkPacket(1, 0, 2, 0))
		s.Arrive(mkPacket(1, 0, 2, 1))
	}
	nCapped := len(collect(capped, 0))
	nFull := len(collect(full, 0))
	if nFull != 2 {
		t.Fatalf("converged iSLIP delivered %d, want 2", nFull)
	}
	if nCapped > nFull {
		t.Fatalf("capped iSLIP delivered more than converged (%d > %d)", nCapped, nFull)
	}
}

func TestRoundsReported(t *testing.T) {
	s := core.NewSwitch(4, New(), xrand.New(1))
	s.Arrive(mkPacket(0, 0, 4, 0))
	collect(s, 0)
	if s.LastRounds() != 1 {
		t.Fatalf("LastRounds = %d, want 1", s.LastRounds())
	}
	if s.MeanRounds() != 1 {
		t.Fatalf("MeanRounds = %v", s.MeanRounds())
	}
}

func TestNoStarvationUnderContention(t *testing.T) {
	// Both inputs continuously loaded for output 0 only: round-robin
	// pointers must alternate service, so over 40 slots each input
	// sends 20 cells.
	const n = 2
	s := core.NewSwitch(n, New(), xrand.New(1))
	served := map[int]int{}
	for slot := int64(0); slot < 40; slot++ {
		for in := 0; in < n; in++ {
			s.Arrive(mkPacket(in, slot, n, 0))
		}
		for _, d := range collect(s, slot) {
			served[d.In]++
		}
	}
	if served[0] != 20 || served[1] != 20 {
		t.Fatalf("service shares %v, want 20/20", served)
	}
}

// refArbiter is the O(N²) iSLIP scan the bitmap Match replaced, kept
// verbatim as the differential's reference: every output probes every
// input from its grant pointer with a modulo per probe, every input
// probes every output from its accept pointer.
type refArbiter struct {
	Iterations int

	grantPtr  []int
	acceptPtr []int

	inputFree  []bool
	outputFree []bool
	grantTo    []int
}

func (a *refArbiter) Name() string              { return "islip-ref" }
func (a *refArbiter) Mode() core.PreprocessMode { return core.ModeCopied }

func (a *refArbiter) ensure(n int) {
	if len(a.grantPtr) == n {
		return
	}
	a.grantPtr = make([]int, n)
	a.acceptPtr = make([]int, n)
	a.inputFree = make([]bool, n)
	a.outputFree = make([]bool, n)
	a.grantTo = make([]int, n)
}

func (a *refArbiter) Match(s *core.Switch, _ int64, _ *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	a.ensure(n)
	for i := 0; i < n; i++ {
		a.inputFree[i] = true
		a.outputFree[i] = true
	}
	maxIter := a.Iterations
	if maxIter <= 0 {
		maxIter = n
	}

	for iter := 0; iter < maxIter; iter++ {
		// Grant step: each unmatched output picks, round-robin from its
		// grant pointer, the first unmatched input with a cell for it.
		// (Requests are implicit: input i requests output j iff VOQ(i,j)
		// is non-empty.)
		for out := 0; out < n; out++ {
			a.grantTo[out] = core.None
			if !a.outputFree[out] {
				continue
			}
			for k := 0; k < n; k++ {
				in := (a.grantPtr[out] + k) % n
				if a.inputFree[in] && s.VOQLen(in, out) > 0 {
					a.grantTo[out] = in
					break
				}
			}
		}

		// Accept step: each unmatched input picks, round-robin from its
		// accept pointer, the first output that granted it.
		matched := false
		for in := 0; in < n; in++ {
			if !a.inputFree[in] {
				continue
			}
			for k := 0; k < n; k++ {
				out := (a.acceptPtr[in] + k) % n
				if a.grantTo[out] != in {
					continue
				}
				m.OutIn[out] = in
				a.inputFree[in] = false
				a.outputFree[out] = false
				matched = true
				if iter == 0 {
					a.grantPtr[out] = (in + 1) % n
					a.acceptPtr[in] = (out + 1) % n
				}
				break
			}
		}
		if !matched {
			break
		}
		m.Rounds++
	}
}

// lockstep is the switch's arbiter in the differential: every slot it
// runs the reference on a private matching and the candidate on the
// switch's, and records the first slot where the matchings or the
// pointer states part. The switch then transfers the candidate's
// matching, so both arbiters see the same evolving VOQs.
type lockstep struct {
	ref       *refArbiter
	cand      core.Arbiter
	ptrs      func() (grant, accept []int)
	refM      *core.Matching
	diverged  string
	slotsSeen int
}

func (l *lockstep) Name() string              { return "islip-lockstep" }
func (l *lockstep) Mode() core.PreprocessMode { return core.ModeCopied }

func (l *lockstep) Match(s *core.Switch, slot int64, r *xrand.Rand, m *core.Matching) {
	if l.refM == nil {
		l.refM = core.NewMatching(s.Ports())
	}
	l.refM.Clear()
	l.ref.Match(s, slot, r, l.refM)
	l.cand.Match(s, slot, r, m)
	l.slotsSeen++
	if l.diverged != "" {
		return
	}
	grant, accept := l.ptrs()
	switch {
	case !slices.Equal(m.OutIn, l.refM.OutIn):
		l.diverged = fmt.Sprintf("slot %d: OutIn %v, reference %v", slot, m.OutIn, l.refM.OutIn)
	case m.Rounds != l.refM.Rounds:
		l.diverged = fmt.Sprintf("slot %d: Rounds %d, reference %d", slot, m.Rounds, l.refM.Rounds)
	case !slices.Equal(grant, l.ref.grantPtr):
		l.diverged = fmt.Sprintf("slot %d: grantPtr %v, reference %v", slot, grant, l.ref.grantPtr)
	case !slices.Equal(accept, l.ref.acceptPtr):
		l.diverged = fmt.Sprintf("slot %d: acceptPtr %v, reference %v", slot, accept, l.ref.acceptPtr)
	}
}

// runLockstep drives a switch under cand and the reference in lockstep
// over random multicast arrivals — dense enough that VOQs back up and
// several iterations compete — and returns the first divergence, or "".
func runLockstep(t *testing.T, n, iterations int, cand core.Arbiter, ptrs func() (grant, accept []int)) string {
	t.Helper()
	l := &lockstep{ref: &refArbiter{Iterations: iterations}, cand: cand, ptrs: ptrs}
	s := core.NewSwitch(n, l, xrand.New(1))
	r := xrand.New(uint64(n*10 + iterations))
	slots := int64(max(60, 6000/n))
	id := cell.PacketID(0)
	for slot := int64(0); slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if !r.Bool(0.7) {
				continue
			}
			d := destset.New(n)
			d.RandomBernoulli(r, 1.5/float64(n))
			if d.Empty() {
				d.Add(r.Intn(n))
			}
			id++
			s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
		}
		s.Step(slot, func(cell.Delivery) {})
	}
	if l.slotsSeen == 0 {
		t.Fatal("the arbiter never ran")
	}
	return l.diverged
}

// TestBitmapMatchesReference pins the bitmap Match to the O(N²) scan
// decision for decision — matching, rounds and both pointer arrays
// after every slot — across word boundaries (63, 64, 65, 130, 256) and
// every iteration cap. The delivery golden stops at N = 64; this is the
// multi-word pin.
func TestBitmapMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 63, 64, 65, 130, 256} {
		for iterations := 0; iterations <= 3; iterations++ {
			t.Run(fmt.Sprintf("n=%d/iter=%d", n, iterations), func(t *testing.T) {
				a := &Arbiter{Iterations: iterations}
				if d := runLockstep(t, n, iterations, a, func() ([]int, []int) { return a.grantPtr, a.acceptPtr }); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// skewedGrant is the bitmap arbiter with one mutation: every output's
// grant scan starts one past its grant pointer. It shifts the pointers
// before Match and restores those iteration 0 did not update, which it
// learns from a one-iteration probe on the same shifted pointers.
type skewedGrant struct{ *Arbiter }

func (k skewedGrant) Match(s *core.Switch, slot int64, r *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	k.ensure(n)
	saved := slices.Clone(k.grantPtr)
	for i := range k.grantPtr {
		k.grantPtr[i] = (saved[i] + 1) % n
	}
	probe := &Arbiter{Iterations: 1}
	probe.ensure(n)
	copy(probe.grantPtr, k.grantPtr)
	copy(probe.acceptPtr, k.acceptPtr)
	first := core.NewMatching(n)
	probe.Match(s, slot, r, first)
	k.Arbiter.Match(s, slot, r, m)
	for out, in := range first.OutIn {
		if in == core.None {
			k.grantPtr[out] = saved[out]
		}
	}
}

// TestDifferentialCatchesSkewedGrant is the differential's own check: a
// grant scan that starts at ptr+1 must be caught.
func TestDifferentialCatchesSkewedGrant(t *testing.T) {
	for _, n := range []int{5, 16, 65} {
		a := &Arbiter{}
		if d := runLockstep(t, n, 0, skewedGrant{a}, func() ([]int, []int) { return a.grantPtr, a.acceptPtr }); d == "" {
			t.Fatalf("n=%d: the ptr+1 grant mutant survived the differential", n)
		}
	}
}
