package core

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// randomTraffic drives the switch with Bernoulli-style random arrivals
// for the given number of slots, returning all deliveries. Arrival
// intensity is chosen to keep the switch loaded but stable.
func randomTraffic(t *testing.T, s *Switch, slots int64, seed uint64, busyP, destP float64) []cell.Delivery {
	t.Helper()
	r := xrand.New(seed)
	n := s.Ports()
	var all []cell.Delivery
	id := cell.PacketID(0)
	for slot := int64(0); slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if !r.Bool(busyP) {
				continue
			}
			d := destset.New(n)
			d.RandomBernoulli(r, destP)
			if d.Empty() {
				continue
			}
			id++
			s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
		}
		s.Step(slot, func(d cell.Delivery) { all = append(all, d) })
	}
	// Drain.
	for slot := slots; s.BufferedCells() > 0; slot++ {
		if slot > slots+1_000_000 {
			t.Fatal("switch failed to drain")
		}
		s.Step(slot, func(d cell.Delivery) { all = append(all, d) })
	}
	return all
}

// TestPerVOQFIFOOrder: deliveries on each (input, output) pair must
// leave in arrival-time order — the virtual output queues are strict
// FIFOs and FIFOMS only ever serves their heads.
func TestPerVOQFIFOOrder(t *testing.T) {
	s := NewSwitch(8, &FIFOMS{}, xrand.New(21))
	deliveries := randomTraffic(t, s, 3000, 22, 0.5, 0.3)
	if len(deliveries) == 0 {
		t.Fatal("no deliveries")
	}
	lastID := map[[2]int]cell.PacketID{}
	for _, d := range deliveries {
		key := [2]int{d.In, d.Out}
		// Packet IDs are assigned in arrival order, so FIFO order per
		// VOQ means strictly increasing IDs per (in, out) pair.
		if prev, ok := lastID[key]; ok && d.ID <= prev {
			t.Fatalf("pair (%d,%d): packet %d served after %d", d.In, d.Out, d.ID, prev)
		}
		lastID[key] = d.ID
	}
}

// TestConservationExactlyOnce: every offered copy is delivered exactly
// once, no copy is fabricated, and buffers reclaim fully.
func TestConservationExactlyOnce(t *testing.T) {
	for _, arb := range []Arbiter{&FIFOMS{}, &FIFOMS{NoFanoutSplitting: true}, &FIFOMS{MaxRounds: 2}} {
		s := NewSwitch(8, arb, xrand.New(31))
		r := xrand.New(32)
		n := s.Ports()
		offered := map[cell.PacketID]int{}
		delivered := map[cell.PacketID]map[int]int{}
		id := cell.PacketID(0)
		record := func(d cell.Delivery) {
			if delivered[d.ID] == nil {
				delivered[d.ID] = map[int]int{}
			}
			delivered[d.ID][d.Out]++
		}
		var slot int64
		for ; slot < 2000; slot++ {
			for in := 0; in < n; in++ {
				if !r.Bool(0.4) {
					continue
				}
				d := destset.New(n)
				d.RandomBernoulli(r, 0.25)
				if d.Empty() {
					continue
				}
				id++
				offered[id] = d.Count()
				s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
			}
			s.Step(slot, record)
		}
		for ; s.BufferedCells() > 0 && slot < 1_000_000; slot++ {
			s.Step(slot, record)
		}
		if s.BufferedCells() != 0 || s.BufferedAddressCells() != 0 {
			t.Fatalf("%s: buffers not reclaimed", arb.Name())
		}
		for pid, fanout := range offered {
			got := 0
			for _, c := range delivered[pid] {
				if c != 1 {
					t.Fatalf("%s: packet %d delivered %d times to one output", arb.Name(), pid, c)
				}
				got++
			}
			if got != fanout {
				t.Fatalf("%s: packet %d delivered to %d of %d destinations", arb.Name(), pid, got, fanout)
			}
		}
	}
}

// TestNoStarvationUnderSustainedContention: with every input
// continuously feeding the same output, no packet's wait is unbounded
// (the paper's starvation-freedom property from the FIFO rule). Under
// FIFO service the oldest cell always wins its output, so the wait of
// any cell is bounded by the backlog of not-younger cells at arrival.
func TestNoStarvationUnderSustainedContention(t *testing.T) {
	const n = 4
	s := NewSwitch(n, &FIFOMS{}, xrand.New(41))
	id := cell.PacketID(0)
	arrivalSlot := map[cell.PacketID]int64{}
	worst := int64(0)
	// Keep offered load at capacity for output 0: one new packet per
	// slot, rotating the sending input.
	for slot := int64(0); slot < 4000; slot++ {
		in := int(slot) % n
		id++
		arrivalSlot[id] = slot
		s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: destset.FromMembers(n, 0)})
		s.Step(slot, func(d cell.Delivery) {
			wait := slot - arrivalSlot[d.ID]
			if wait > worst {
				worst = wait
			}
			delete(arrivalSlot, d.ID)
		})
	}
	// At exactly 100% load for one output, the backlog stays O(1) and
	// every cell departs within a few slots of arrival.
	if worst > 3*n {
		t.Fatalf("worst wait %d slots under full contention; starvation suspected", worst)
	}
}

// TestSharedDataCellInvariantStressed: the Step-time panic guards the
// "one data cell per input per slot" invariant; this stress run makes
// sure it never fires across many random slots (it would panic the
// test) and that multicast grants really do share one data cell.
func TestSharedDataCellInvariantStressed(t *testing.T) {
	s := NewSwitch(6, &FIFOMS{}, xrand.New(51))
	slotSeen := map[int64]map[int]cell.PacketID{}
	r := xrand.New(52)
	id := cell.PacketID(0)
	for slot := int64(0); slot < 5000; slot++ {
		for in := 0; in < 6; in++ {
			if !r.Bool(0.6) {
				continue
			}
			d := destset.New(6)
			d.RandomBernoulli(r, 0.4)
			if d.Empty() {
				continue
			}
			id++
			s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
		}
		slotSeen[slot] = map[int]cell.PacketID{}
		s.Step(slot, func(d cell.Delivery) {
			if prev, ok := slotSeen[slot][d.In]; ok && prev != d.ID {
				t.Fatalf("slot %d: input %d sent packets %d and %d", slot, d.In, prev, d.ID)
			}
			slotSeen[slot][d.In] = d.ID
		})
		delete(slotSeen, slot-1)
	}
}

// TestOutputNeverDoubleDriven: at most one delivery per output per
// slot.
func TestOutputNeverDoubleDriven(t *testing.T) {
	s := NewSwitch(6, &FIFOMS{}, xrand.New(61))
	r := xrand.New(62)
	id := cell.PacketID(0)
	for slot := int64(0); slot < 2000; slot++ {
		for in := 0; in < 6; in++ {
			if r.Bool(0.5) {
				d := destset.New(6)
				d.RandomBernoulli(r, 0.35)
				if d.Empty() {
					continue
				}
				id++
				s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
			}
		}
		outs := map[int]bool{}
		s.Step(slot, func(d cell.Delivery) {
			if outs[d.Out] {
				t.Fatalf("slot %d: output %d driven twice", slot, d.Out)
			}
			outs[d.Out] = true
		})
	}
}

// TestMatchingIsMaximalFIFOMS: after convergence no free input still
// holds a HOL cell for a free output — the do/while in Table 2 runs
// until no match is possible.
func TestMatchingIsMaximalFIFOMS(t *testing.T) {
	s := NewSwitch(8, &FIFOMS{}, xrand.New(71))
	r := xrand.New(72)
	id := cell.PacketID(0)
	for slot := int64(0); slot < 500; slot++ {
		for in := 0; in < 8; in++ {
			if r.Bool(0.7) {
				d := destset.New(8)
				d.RandomBernoulli(r, 0.4)
				if d.Empty() {
					continue
				}
				id++
				s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
			}
		}
		inBusy := map[int]bool{}
		outBusy := map[int]bool{}
		s.Step(slot, func(d cell.Delivery) {
			inBusy[d.In] = true
			outBusy[d.Out] = true
		})
		for in := 0; in < 8; in++ {
			if inBusy[in] {
				continue
			}
			for out := 0; out < 8; out++ {
				if !outBusy[out] && s.VOQLen(in, out) > 0 {
					// The cell at this VOQ head existed before Step (we
					// only add arrivals before stepping), so the match
					// was not maximal.
					t.Fatalf("slot %d: free pair (%d,%d) left unmatched with queued cell", slot, in, out)
				}
			}
		}
	}
}

func TestQueueCounts(t *testing.T) {
	if QueueCountTraditional(4) != 15 || QueueCountTraditional(16) != 65535 {
		t.Fatal("traditional queue count wrong")
	}
	if QueueCountPaper(16) != 16 {
		t.Fatal("paper queue count wrong")
	}
	if QueueCountTraditional(64) <= QueueCountTraditional(62) {
		t.Fatal("saturation for huge N broken")
	}
	for n := 2; n <= 20; n++ {
		if QueueCountPaper(n) >= QueueCountTraditional(n) {
			t.Fatalf("no savings at n=%d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad size did not panic")
		}
	}()
	QueueCountTraditional(0)
}

// TestCachedHOLStateCoherent cross-checks the flat cached HOL state
// against the authoritative queues after every slot of a random run:
// the caches are updated incrementally on push/pop and any divergence
// means a maintenance path was missed.
func TestCachedHOLStateCoherent(t *testing.T) {
	const n = 9 // odd and >8 so the last bitmap word is partial
	s := NewSwitch(n, &FIFOMS{}, xrand.New(3))
	r := xrand.New(4)
	id := cell.PacketID(0)
	for slot := int64(0); slot < 2000; slot++ {
		for in := 0; in < n; in++ {
			if r.Bool(0.5) {
				d := destset.New(n)
				d.RandomBernoulli(r, 0.3)
				if d.Empty() {
					continue
				}
				id++
				s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
			}
		}
		s.Step(slot, func(cell.Delivery) {})
		for in := 0; in < n; in++ {
			occ := s.OccInWords(in)
			for out := 0; out < n; out++ {
				ts := s.HOLTime(in, out)
				inBit := s.occOut[out*s.words+in>>6]&(1<<uint(in&63)) != 0
				outBit := occ[out>>6]&(1<<uint(out&63)) != 0
				if s.VOQLen(in, out) == 0 {
					if ts != emptyHOL || inBit || outBit {
						t.Fatalf("slot %d (%d,%d): empty VOQ cached as ts=%d occIn=%v occOut=%v",
							slot, in, out, ts, outBit, inBit)
					}
				} else {
					if head := s.front(s.queue(in, out)).ts; ts != head || !inBit || !outBit {
						t.Fatalf("slot %d (%d,%d): HOL ts %d cached as ts=%d occIn=%v occOut=%v",
							slot, in, out, head, ts, outBit, inBit)
					}
				}
			}
			// The per-input oldest-stamp cache must agree with a direct
			// scan over the VOQ heads: same minimum, same argmin set.
			wantMin := int64(emptyHOL)
			wantMask := make([]uint64, s.words)
			for out := 0; out < n; out++ {
				if s.VOQLen(in, out) == 0 {
					continue
				}
				switch ts := s.front(s.queue(in, out)).ts; {
				case ts < wantMin:
					wantMin = ts
					clear(wantMask)
					wantMask[out>>6] = 1 << uint(out&63)
				case ts == wantMin:
					wantMask[out>>6] |= 1 << uint(out&63)
				}
			}
			if s.minHOL[in] != wantMin {
				t.Fatalf("slot %d input %d: minHOL cached as %d, scan says %d",
					slot, in, s.minHOL[in], wantMin)
			}
			for wi := 0; wi < s.words; wi++ {
				if got := s.minMask[in*s.words+wi]; got != wantMask[wi] {
					t.Fatalf("slot %d input %d: minMask word %d cached as %#x, scan says %#x",
						slot, in, wi, got, wantMask[wi])
				}
			}
		}
	}
}
