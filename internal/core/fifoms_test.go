package core

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

var nextTestID cell.PacketID

func mkPacket(in int, arrival int64, n int, dests ...int) *cell.Packet {
	nextTestID++
	return &cell.Packet{ID: nextTestID, Input: in, Arrival: arrival, Dests: destset.FromMembers(n, dests...)}
}

func collect(s *Switch, slot int64) []cell.Delivery {
	var out []cell.Delivery
	s.Step(slot, func(d cell.Delivery) { out = append(out, d) })
	return out
}

func newFIFOMSSwitch(n int) *Switch {
	return NewSwitch(n, &FIFOMS{}, xrand.New(42))
}

func TestPreprocessShared(t *testing.T) {
	s := newFIFOMSSwitch(4)
	p := mkPacket(1, 0, 4, 0, 2, 3)
	s.Arrive(p)
	if got := s.BufferedCells(); got != 1 {
		t.Fatalf("data cells = %d, want 1 (shared)", got)
	}
	if got := s.BufferedAddressCells(); got != 3 {
		t.Fatalf("address cells = %d, want 3", got)
	}
	for _, out := range []int{0, 2, 3} {
		if s.VOQLen(1, out) != 1 {
			t.Fatalf("VOQ(1,%d) length %d", out, s.VOQLen(1, out))
		}
		if ts := s.HOLTime(1, out); ts != 0 {
			t.Fatalf("HOLTime(1,%d) = %d, want 0", out, ts)
		}
		if ref := s.HOLDataRef(1, out); ref < 0 {
			t.Fatalf("HOLDataRef(1,%d) = %d, want a live slab entry", out, ref)
		}
	}
	if s.VOQLen(1, 1) != 0 || s.HOLTime(1, 1) != EmptyHOL || s.HOLDataRef(1, 1) != -1 {
		t.Fatal("non-destination VOQ populated")
	}
	// All three address cells must share one data cell.
	if s.HOLDataRef(1, 0) != s.HOLDataRef(1, 2) || s.HOLDataRef(1, 2) != s.HOLDataRef(1, 3) {
		t.Fatal("address cells do not share the data cell")
	}
}

// copiedArbiter is a minimal copied-mode arbiter used to test
// preprocessing; it never grants anything.
type copiedArbiter struct{}

func (copiedArbiter) Name() string                                 { return "copied-test" }
func (copiedArbiter) Mode() PreprocessMode                         { return ModeCopied }
func (copiedArbiter) Match(*Switch, int64, *xrand.Rand, *Matching) {}

func TestPreprocessCopied(t *testing.T) {
	s := NewSwitch(4, copiedArbiter{}, xrand.New(1))
	s.Arrive(mkPacket(0, 0, 4, 1, 2, 3))
	if got := s.BufferedCells(); got != 3 {
		t.Fatalf("data cells = %d, want 3 (copied)", got)
	}
	if s.HOLDataRef(0, 1) == s.HOLDataRef(0, 2) {
		t.Fatal("copied mode shared a data cell")
	}
	if s.DataFanout(s.HOLDataRef(0, 1)) != 1 {
		t.Fatal("copied data cell fanout != 1")
	}
}

func TestArriveValidation(t *testing.T) {
	s := newFIFOMSSwitch(4)
	for name, p := range map[string]*cell.Packet{
		"badInput":    {ID: 1, Input: 4, Arrival: 0, Dests: destset.FromMembers(4, 0)},
		"badUniverse": {ID: 2, Input: 0, Arrival: 0, Dests: destset.FromMembers(8, 0)},
		"emptyDests":  {ID: 3, Input: 0, Arrival: 0, Dests: destset.New(4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			s.Arrive(p)
		}()
	}
}

func TestMulticastDeliveredInOneSlot(t *testing.T) {
	// A lone multicast packet must reach all destinations in its
	// arrival slot: the crossbar's multicast capability in action.
	s := newFIFOMSSwitch(4)
	p := mkPacket(2, 0, 4, 0, 1, 3)
	s.Arrive(p)
	ds := collect(s, 0)
	if len(ds) != 3 {
		t.Fatalf("delivered %d copies, want 3", len(ds))
	}
	outs := map[int]bool{}
	for _, d := range ds {
		if d.ID != p.ID || d.In != 2 || d.Slot != 0 {
			t.Fatalf("bad delivery %+v", d)
		}
		outs[d.Out] = true
	}
	if !outs[0] || !outs[1] || !outs[3] {
		t.Fatalf("wrong outputs: %v", outs)
	}
	if s.BufferedCells() != 0 || s.BufferedAddressCells() != 0 {
		t.Fatal("buffers not drained")
	}
	if s.LastRounds() != 1 {
		t.Fatalf("LastRounds = %d, want 1", s.LastRounds())
	}
}

func TestOlderTimestampWinsContention(t *testing.T) {
	// Two inputs both want output 0; the earlier arrival must win
	// regardless of input index, in both orders.
	for _, older := range []int{0, 1} {
		s := newFIFOMSSwitch(2)
		younger := 1 - older
		pOld := mkPacket(older, 0, 2, 0)
		pNew := mkPacket(younger, 5, 2, 0)
		s.Arrive(pOld)
		s.Arrive(pNew)
		ds := collect(s, 5)
		if len(ds) != 1 || ds[0].ID != pOld.ID {
			t.Fatalf("older=%d: deliveries %+v, want packet %d", older, ds, pOld.ID)
		}
		// The loser goes in the next slot.
		ds = collect(s, 6)
		if len(ds) != 1 || ds[0].ID != pNew.ID {
			t.Fatalf("older=%d: second slot %+v", older, ds)
		}
	}
}

func TestTieBrokenExactlyOnce(t *testing.T) {
	// Same-timestamp contention: exactly one wins the slot, the other
	// is served the following slot; nothing is lost or duplicated.
	s := newFIFOMSSwitch(2)
	a := mkPacket(0, 0, 2, 1)
	b := mkPacket(1, 0, 2, 1)
	s.Arrive(a)
	s.Arrive(b)
	first := collect(s, 0)
	if len(first) != 1 {
		t.Fatalf("slot 0 delivered %d copies, want 1", len(first))
	}
	second := collect(s, 1)
	if len(second) != 1 || second[0].ID == first[0].ID {
		t.Fatalf("slot 1 delivered %+v after %+v", second, first)
	}
}

func TestFanoutSplitting(t *testing.T) {
	// in0 carries a fanout-2 packet {0,1}; in1 carries an older
	// unicast to 1. FIFOMS must split: in0 reaches output 0 now and
	// output 1 next slot.
	s := newFIFOMSSwitch(2)
	multi := mkPacket(0, 1, 2, 0, 1)
	uni := mkPacket(1, 0, 2, 1)
	s.Arrive(uni)
	s.Arrive(multi)
	ds := collect(s, 1)
	if len(ds) != 2 {
		t.Fatalf("slot 1 delivered %d copies, want 2", len(ds))
	}
	for _, d := range ds {
		switch d.Out {
		case 0:
			if d.ID != multi.ID {
				t.Fatalf("output 0 got %+v", d)
			}
			if d.Last {
				t.Fatal("split packet marked Last on first copy")
			}
		case 1:
			if d.ID != uni.ID {
				t.Fatalf("output 1 got %+v", d)
			}
		}
	}
	if s.BufferedCells() != 1 {
		t.Fatalf("residual data cells = %d, want 1", s.BufferedCells())
	}
	ds = collect(s, 2)
	if len(ds) != 1 || ds[0].ID != multi.ID || ds[0].Out != 1 || !ds[0].Last {
		t.Fatalf("residue delivery %+v", ds)
	}
	if s.BufferedCells() != 0 {
		t.Fatal("data cell not reclaimed after last copy")
	}
}

func TestTwoRoundConvergence(t *testing.T) {
	// in0: ts0 -> {0}. in1: ts1 -> {0} and ts2 -> {1}.
	// Round 1: in1 requests only output 0 (its smallest stamp) and
	// loses to in0. Round 2: in1 requests output 1 and wins.
	s := newFIFOMSSwitch(2)
	p0 := mkPacket(0, 0, 2, 0)
	p1 := mkPacket(1, 1, 2, 0)
	p2 := mkPacket(1, 2, 2, 1)
	s.Arrive(p0)
	s.Arrive(p1)
	s.Arrive(p2)
	ds := collect(s, 2)
	if len(ds) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(ds))
	}
	got := map[int]cell.PacketID{}
	for _, d := range ds {
		got[d.Out] = d.ID
	}
	if got[0] != p0.ID || got[1] != p2.ID {
		t.Fatalf("grants %v, want out0<-p0 out1<-p2", got)
	}
	if s.LastRounds() != 2 {
		t.Fatalf("LastRounds = %d, want 2", s.LastRounds())
	}
}

func TestMaxRoundsCap(t *testing.T) {
	// Same scenario as TestTwoRoundConvergence but capped at 1 round:
	// output 1 stays idle this slot.
	s := NewSwitch(2, &FIFOMS{MaxRounds: 1}, xrand.New(42))
	s.Arrive(mkPacket(0, 0, 2, 0))
	s.Arrive(mkPacket(1, 1, 2, 0))
	s.Arrive(mkPacket(1, 2, 2, 1))
	ds := collect(s, 2)
	if len(ds) != 1 || ds[0].Out != 0 {
		t.Fatalf("capped run delivered %+v, want single copy at output 0", ds)
	}
	if s.LastRounds() != 1 {
		t.Fatalf("LastRounds = %d, want 1", s.LastRounds())
	}
}

func TestMulticastBeatsYoungerEverywhere(t *testing.T) {
	// An older multicast {0,1,2} competes with three younger unicasts
	// from other inputs; the multicast must win all three outputs in
	// one slot (the time-stamp criterion aligning independent grant
	// decisions, Section III).
	s := newFIFOMSSwitch(4)
	multi := mkPacket(0, 0, 4, 0, 1, 2)
	s.Arrive(multi)
	s.Arrive(mkPacket(1, 3, 4, 0))
	s.Arrive(mkPacket(2, 3, 4, 1))
	s.Arrive(mkPacket(3, 3, 4, 2))
	ds := collect(s, 3)
	multiCopies := 0
	for _, d := range ds {
		if d.ID == multi.ID {
			multiCopies++
		}
	}
	if multiCopies != 3 {
		t.Fatalf("multicast won %d outputs, want 3 (deliveries %+v)", multiCopies, ds)
	}
}

func TestInputSendsAtMostOneDataCellPerSlot(t *testing.T) {
	// An input with two queued unicast packets to different free
	// outputs may still serve only one per slot (one data cell per
	// input per slot, Section III.B.1 case 2).
	s := newFIFOMSSwitch(2)
	pa := mkPacket(0, 0, 2, 0)
	pb := mkPacket(0, 1, 2, 1)
	s.Arrive(pa)
	s.Arrive(pb)
	ds := collect(s, 1)
	if len(ds) != 1 || ds[0].ID != pa.ID {
		t.Fatalf("slot delivered %+v, want only the older packet", ds)
	}
	ds = collect(s, 2)
	if len(ds) != 1 || ds[0].ID != pb.ID {
		t.Fatalf("second slot %+v", ds)
	}
}

func TestNoFanoutSplittingHoldsPacketWhole(t *testing.T) {
	s := NewSwitch(2, &FIFOMS{NoFanoutSplitting: true}, xrand.New(42))
	multi := mkPacket(0, 1, 2, 0, 1)
	uni := mkPacket(1, 0, 2, 1)
	s.Arrive(uni)
	s.Arrive(multi)
	// Slot 1: the older unicast takes output 1; the multicast must
	// wait whole (no partial delivery to output 0).
	ds := collect(s, 1)
	if len(ds) != 1 || ds[0].ID != uni.ID {
		t.Fatalf("no-split slot 1 delivered %+v", ds)
	}
	// Slot 2: both outputs free; the multicast goes out atomically.
	ds = collect(s, 2)
	if len(ds) != 2 {
		t.Fatalf("no-split slot 2 delivered %d copies, want 2", len(ds))
	}
	for _, d := range ds {
		if d.ID != multi.ID {
			t.Fatalf("unexpected delivery %+v", d)
		}
	}
}

func TestIdleSlot(t *testing.T) {
	s := newFIFOMSSwitch(4)
	if ds := collect(s, 0); len(ds) != 0 {
		t.Fatalf("idle slot delivered %+v", ds)
	}
	if s.LastRounds() != 0 {
		t.Fatal("idle slot counted rounds")
	}
	if s.MeanRounds() != 0 {
		t.Fatal("MeanRounds nonzero with no active slots")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []cell.Delivery {
		s := NewSwitch(4, &FIFOMS{}, xrand.New(7))
		r := xrand.New(1)
		var all []cell.Delivery
		id := cell.PacketID(0)
		for slot := int64(0); slot < 200; slot++ {
			for in := 0; in < 4; in++ {
				if r.Bool(0.4) {
					d := destset.New(4)
					d.RandomBernoulli(r, 0.4)
					if d.Empty() {
						continue
					}
					id++
					s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
				}
			}
			s.Step(slot, func(d cell.Delivery) { all = append(all, d) })
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d copies", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSplittingRoundReservesEveryRequest pins why a later round of the
// splitting discipline recomputes every free requester's mask without
// consulting the previous one: every output any input requested grants
// (its requester column is never empty), so after each round every
// request mask lies inside the reserved outputs — an input that
// requested and lost always has an emptied mask — and a free input
// without a request has no occupied VOQ at a free output, so it never
// gains one. It steps evolving random states one round at a time (a
// round cap of k on a fresh copy of one generator) at one, two and
// three bitmap words.
func TestSplittingRoundReservesEveryRequest(t *testing.T) {
	for _, n := range []int{9, 64, 130} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := NewSwitch(n, &FIFOMS{}, xrand.New(5))
			traffic := xrand.New(6)
			id := cell.PacketID(0)
			lost := 0
			for slot := int64(0); slot < 200; slot++ {
				churnSwitch(s, traffic, slot, 1, &id, func(cell.Delivery) {})
				for k := 1; ; k++ {
					f := &FIFOMS{MaxRounds: k}
					m := NewMatching(n)
					f.Match(s, slot, xrand.New(uint64(slot)), m)
					if m.Rounds < k {
						break
					}
					w := f.words
					for in := 0; in < n; in++ {
						free := f.inFree[in>>6]&(1<<uint(in&63)) != 0
						for i, rv := range f.reqMask[in*w : in*w+w] {
							if rv&f.outFree[i] != 0 {
								t.Fatalf("slot %d round %d: input %d requested output word %d %#x, still free", slot, k, in, i, rv&f.outFree[i])
							}
							if free && f.minTS[in] < 0 && s.occIn[in*w+i]&f.outFree[i] != 0 {
								t.Fatalf("slot %d round %d: input %d has no request but a queued cell for a free output", slot, k, in)
							}
						}
						if free && f.minTS[in] >= 0 {
							lost++
						}
					}
				}
			}
			if lost == 0 {
				t.Fatal("no input requested and lost: the run never reaches a later round's request step")
			}
		})
	}
}
