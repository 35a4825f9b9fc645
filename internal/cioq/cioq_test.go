package cioq

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

var nextID cell.PacketID

func mkPacket(in int, arrival int64, n int, dests ...int) *cell.Packet {
	nextID++
	return &cell.Packet{ID: nextID, Input: in, Arrival: arrival, Dests: destset.FromMembers(n, dests...)}
}

func collect(s *Switch, slot int64) []cell.Delivery {
	var out []cell.Delivery
	s.Step(slot, func(d cell.Delivery) { out = append(out, d) })
	return out
}

func TestBasics(t *testing.T) {
	s := New(4, 2, &core.FIFOMS{}, xrand.New(1))
	if s.Ports() != 4 || s.speedup != 2 || s.Name() != "cioq-s2-fifoms" {
		t.Fatalf("metadata wrong: %s", s.Name())
	}
	p := mkPacket(0, 0, 4, 1, 2)
	s.Arrive(p)
	ds := collect(s, 0)
	if len(ds) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(ds))
	}
	if s.BufferedCells() != 0 {
		t.Fatal("residue left")
	}
}

func TestSpeedupClampedToN(t *testing.T) {
	s := New(4, 99, &core.FIFOMS{}, xrand.New(1))
	if s.speedup != 4 {
		t.Fatalf("speedup %d, want clamp to 4", s.speedup)
	}
}

func TestSpeedupBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("speedup 0 did not panic")
		}
	}()
	New(4, 0, &core.FIFOMS{}, xrand.New(1))
}

func TestSpeedupMovesHOLConflictsInOneSlot(t *testing.T) {
	// Two inputs, both with two unicast packets for output 0. With
	// speedup 2 the fabric can move two cells into output 0's queue in
	// one slot; the line still sends one per slot.
	s := New(2, 2, &core.FIFOMS{}, xrand.New(1))
	s.Arrive(mkPacket(0, 0, 2, 0))
	s.Arrive(mkPacket(1, 0, 2, 0))
	ds := collect(s, 0)
	if len(ds) != 1 {
		t.Fatalf("line transmitted %d cells, want 1", len(ds))
	}
	// Both cells crossed the fabric: input side must be empty, output
	// queue holds the one not yet transmitted.
	sizes := s.QueueSizes(make([]int, 2))
	if sizes[0]+sizes[1] != 0 {
		t.Fatalf("input backlog %v after speedup-2 slot", sizes)
	}
	oq := s.OutputQueueSizes(make([]int, 2))
	if oq[0] != 1 {
		t.Fatalf("output queue %v", oq)
	}
	ds = collect(s, 1)
	if len(ds) != 1 || s.BufferedCells() != 0 {
		t.Fatalf("second slot %+v, buffered %d", ds, s.BufferedCells())
	}
}

func TestConservation(t *testing.T) {
	s := New(4, 2, &core.FIFOMS{}, xrand.New(2))
	r := xrand.New(3)
	offered, delivered := 0, 0
	var slot int64
	for ; slot < 500; slot++ {
		for in := 0; in < 4; in++ {
			d := destset.New(4)
			d.RandomBernoulli(r, 0.25)
			if d.Empty() {
				continue
			}
			nextID++
			offered += d.Count()
			s.Arrive(&cell.Packet{ID: nextID, Input: in, Arrival: slot, Dests: d})
		}
		s.Step(slot, func(cell.Delivery) { delivered++ })
	}
	for ; s.BufferedCells() > 0 && slot < 100000; slot++ {
		s.Step(slot, func(cell.Delivery) { delivered++ })
	}
	if delivered != offered {
		t.Fatalf("delivered %d of %d", delivered, offered)
	}
}

func TestSpeedupImprovesDelayTowardOQ(t *testing.T) {
	// Under heavy unicast load: delay(S=1) >= delay(S=2) >= ~OQ delay.
	pat := traffic.Uniform{P: 0.9, MaxFanout: 1}
	run := func(speedup int) float64 {
		sw := New(16, speedup, &core.FIFOMS{}, xrand.New(4))
		res := switchsim.New(sw, pat, switchsim.Config{Slots: 60_000, Seed: 4}, xrand.New(4)).Run(sw.Name())
		if res.Unstable {
			t.Fatalf("cioq-s%d unstable at 0.9", speedup)
		}
		return res.InputDelay.Mean
	}
	d1, d2, d4 := run(1), run(2), run(4)
	if d2 > d1*1.02 {
		t.Errorf("speedup 2 delay %v above speedup 1 delay %v", d2, d1)
	}
	if d4 > d2*1.05 {
		t.Errorf("speedup 4 delay %v above speedup 2 delay %v", d4, d2)
	}
	t.Logf("unicast load 0.9 delays: S=1 %.3f, S=2 %.3f, S=4 %.3f", d1, d2, d4)
}
