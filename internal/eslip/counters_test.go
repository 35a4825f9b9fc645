package eslip

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// rescanPayloads counts every input's buffered payloads from the queues
// themselves: the O(N²) scan QueueSizes and BufferedCells answer from
// the incremental payloads counters instead.
func rescanPayloads(s *Switch) []int {
	counts := make([]int, s.n)
	for in := range counts {
		counts[in] = s.mc.Len(in)
		for out := 0; out < s.n; out++ {
			counts[in] += s.uniVOQ[in][out].Len()
		}
	}
	return counts
}

// checkPayloads compares the counters, QueueSizes and BufferedCells
// against the rescan, and the pending copy count against a walk of
// every buffered copy.
func checkPayloads(t *testing.T, s *Switch, when string) {
	t.Helper()
	want := rescanPayloads(s)
	got := s.QueueSizes(make([]int, s.n))
	var total int64
	for in, c := range want {
		if s.payloads[in] != c || got[in] != c {
			t.Fatalf("%s: input %d counts %d payloads (QueueSizes %d), the queues hold %d",
				when, in, s.payloads[in], got[in], c)
		}
		total += int64(c)
	}
	if b := s.BufferedCells(); b != total {
		t.Fatalf("%s: BufferedCells = %d, the queues hold %d", when, b, total)
	}
	var copies int64
	s.ForEachCopy(func(int, int, cell.PacketID, int64) { copies++ })
	if s.pending != copies {
		t.Fatalf("%s: %d copies counted pending, the queues hold %d", when, s.pending, copies)
	}
}

// TestPayloadCountersMatchQueues drives mixed unicast and multicast
// traffic past a word boundary, checking the counters every slot, then
// checks them again on a switch restored from a mid-run snapshot.
func TestPayloadCountersMatchQueues(t *testing.T) {
	const n, slots = 70, 400
	s := New(n)
	r := xrand.New(31)
	var id cell.PacketID
	for slot := int64(0); slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if !r.Bool(0.7) {
				continue
			}
			d := destset.New(n)
			if r.Bool(0.5) {
				d.Add(r.Intn(n)) // unicast
			} else {
				d.RandomKSubset(r, 2+r.Intn(4))
			}
			id++
			s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
		}
		s.Step(slot, func(cell.Delivery) {})
		checkPayloads(t, s, "after a slot")
	}
	if s.BufferedCells() == 0 {
		t.Fatal("overloaded traffic left nothing buffered")
	}

	w := snap.NewWriter()
	s.SaveState(w)
	rd, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	restored := New(n)
	if err := restored.LoadState(rd); err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, restored, "after LoadState")
	for slot := int64(slots); slot < slots+50; slot++ {
		restored.Step(slot, func(cell.Delivery) {})
		checkPayloads(t, restored, "after a restored slot")
	}
}
