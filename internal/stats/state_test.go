package stats

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/idwin"
	"voqsim/internal/snap"
)

// TestDelayTrackerLoadStateBoundsIDSpan restores trackers whose
// outstanding packets are two IDs apart by various spans. Outstanding
// IDs 1 and 1<<44 — a few bytes of snapshot — once restored cleanly,
// and the next ID issued made the window double toward 2^45 entries;
// LoadState refuses them, and a span just past idwin.MaxSpan, and
// accepts the widest span below it. (The second ID never shares the
// first's slot in the saving tracker, which would grow its table;
// TestSpanAdmit pins the exact boundary.)
func TestDelayTrackerLoadStateBoundsIDSpan(t *testing.T) {
	for _, tc := range []struct {
		hi cell.PacketID
		ok bool
	}{
		{1 << 44, false},
		{2 + idwin.MaxSpan, false},
		{idwin.MaxSpan, true},
	} {
		saved := NewDelayTracker(0)
		saved.Arrive(pkt(1, 0, 0))
		saved.Arrive(pkt(tc.hi, 1, 0))
		w := snap.NewWriter()
		saved.SaveState(w)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		err = NewDelayTracker(0).LoadState(r)
		if tc.ok && err != nil {
			t.Errorf("outstanding IDs 1 and %d: LoadState = %v, want success", tc.hi, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "span")) {
			t.Errorf("outstanding IDs 1 and %d: LoadState = %v, want a span error", tc.hi, err)
		}
	}
}
