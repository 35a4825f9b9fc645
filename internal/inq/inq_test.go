package inq

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
)

const n = 4

func packet(id cell.PacketID, in int, arrival int64, dests ...int) *cell.Packet {
	return &cell.Packet{ID: id, Input: in, Arrival: arrival, Dests: destset.FromMembers(n, dests...)}
}

// TestAdvanceReleasesServedHead: the head leaves, and its packet is
// handed back once, only with every destination served; the queue's
// occupancy bit follows.
func TestAdvanceReleasesServedHead(t *testing.T) {
	s := New(n)
	var released []cell.PacketID
	s.SetReleaseHook(func(p *cell.Packet) { released = append(released, p.ID) })
	s.Push(packet(1, 2, 0, 0, 3))
	s.Push(packet(2, 2, 1, 1))
	e := s.Front(2)
	e.Remaining.Remove(0)
	if s.Advance(2) || len(released) != 0 {
		t.Fatal("a part-served head left its queue")
	}
	if !s.Front(2).P.Dests.Contains(0) {
		t.Fatal("serving a copy wrote the packet's own destination set")
	}
	e.Remaining.Remove(3)
	if !s.Advance(2) || s.Len(2) != 1 || len(released) != 1 || released[0] != 1 {
		t.Fatalf("served head: Len %d, released %v", s.Len(2), released)
	}
	s.Front(2).Remaining.Remove(1)
	s.Advance(2)
	if s.Occupied().Contains(2) || s.BufferedCells() != 0 || s.Advance(2) {
		t.Fatal("drained input still counted as occupied")
	}
}

// entry is one queued packet as SaveInput writes it.
type entry struct {
	id               cell.PacketID
	arrival          int64
	dests, remaining []int
}

func blob(entries ...entry) []byte {
	w := snap.NewWriter()
	w.Begin("inq")
	w.Count(len(entries))
	for _, e := range entries {
		w.I64(int64(e.id))
		w.I64(e.arrival)
		snap.WriteDests(w, destset.FromMembers(n, e.dests...))
		snap.WriteDests(w, destset.FromMembers(n, e.remaining...))
	}
	w.End()
	return w.Bytes()
}

func load(t *testing.T, data []byte, minFanout int) (*Store, error) {
	t.Helper()
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("inq"); err != nil {
		t.Fatal(err)
	}
	s := New(n)
	if err := s.LoadInput(r, 1, minFanout); err != nil {
		return nil, err
	}
	return s, r.EndSection()
}

// TestLoadInputRoundTrip: SaveInput's bytes load back to the same queue.
func TestLoadInputRoundTrip(t *testing.T) {
	data := blob(entry{7, 3, []int{0, 2}, []int{2}}, entry{9, 5, []int{1}, []int{1}})
	s, err := load(t, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	w.Begin("inq")
	s.SaveInput(w, 1)
	w.End()
	if got := w.Bytes(); string(got) != string(data) {
		t.Fatalf("reloaded queue saves %x, want %x", got, data)
	}
	if !s.Occupied().Contains(1) || s.Len(1) != 2 || s.Front(1).P.Input != 1 {
		t.Fatal("loaded queue not in place")
	}
}

// TestLoadInputRejects is the catalogue of queues no run could build.
func TestLoadInputRejects(t *testing.T) {
	for _, tc := range []struct {
		name      string
		minFanout int
		entries   []entry
		want      string
	}{
		{"no remaining destinations", 1, []entry{{1, 0, []int{0}, nil}}, "invalid destination sets"},
		{"fanout below the minimum", 2, []entry{{1, 0, []int{0}, []int{0}}}, "invalid destination sets"},
		{"negative arrival", 1, []entry{{1, -1, []int{0}, []int{0}}}, "arrival -1 outside"},
		{"remaining outside destinations", 1, []entry{{1, 0, []int{0}, []int{0, 1}}}, "remaining outside"},
		{"repeated arrival", 1, []entry{{1, 4, []int{0}, []int{0}}, {2, 4, []int{1}, []int{1}}}, "input 1 queues slot 4 behind slot 4"},
		{"decreasing arrival", 1, []entry{{1, 4, []int{0}, []int{0}}, {2, 3, []int{1}, []int{1}}}, "input 1 queues slot 3 behind slot 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := load(t, blob(tc.entries...), tc.minFanout); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadInput = %v, want %q", err, tc.want)
			}
		})
	}
}
