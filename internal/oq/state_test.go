package oq

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/idwin"
	"voqsim/internal/snap"
)

// TestLoadStateBoundsIDSpan restores output queues whose per-packet
// counters are two IDs apart by various spans. Counters for IDs 1 and
// 1<<44 — a few bytes of snapshot — would restore cleanly, and the
// next ID issued would make the window double toward 2^45 entries;
// LoadState refuses them, and a span just past idwin.MaxSpan, and
// accepts the widest span below it.
func TestLoadStateBoundsIDSpan(t *testing.T) {
	for _, tc := range []struct {
		hi cell.PacketID
		ok bool
	}{
		{1 << 44, false},
		{2 + idwin.MaxSpan, false},
		{idwin.MaxSpan, true},
	} {
		saved := New(4)
		for i, id := range []cell.PacketID{1, tc.hi} {
			saved.Arrive(&cell.Packet{ID: id, Input: i, Arrival: 0, Dests: destset.FromMembers(4, i)})
		}
		w := snap.NewWriter()
		saved.SaveState(w)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		err = New(4).LoadState(r)
		if tc.ok && err != nil {
			t.Errorf("packets 1 and %d: LoadState = %v, want success", tc.hi, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "span")) {
			t.Errorf("packets 1 and %d: LoadState = %v, want a span error", tc.hi, err)
		}
	}
}

// TestDoneOnLastCopySent: the output stage marks Done on the copy that
// leaves a packet nothing owed, whichever output sends it, and carries
// the packet's fanout on every copy.
func TestDoneOnLastCopySent(t *testing.T) {
	s := New(4)
	s.Arrive(mkPacket(0, 0, 4, 1, 2))
	s.Arrive(mkPacket(1, 0, 4, 2))
	var done []cell.PacketID
	for slot := int64(0); slot < 3; slot++ {
		for _, d := range collect(s, slot) {
			if d.Fanout != int32(map[int]int{0: 2, 1: 1}[d.In]) {
				t.Fatalf("copy %+v carries the wrong fanout", d)
			}
			if d.Done {
				done = append(done, d.ID)
			}
		}
	}
	if len(done) != 2 || done[0] == done[1] {
		t.Fatalf("Done on %v, want each packet once", done)
	}
	if s.pkts.Len() != 0 {
		t.Fatalf("%d packet counters left after every copy was sent", s.pkts.Len())
	}
}
