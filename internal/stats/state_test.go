package stats

import (
	"bytes"
	"encoding/binary"
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

// TestDelayTrackerLoadStateRejectsWideCounters: the window keeps an
// outstanding packet's fanout and remaining copies as int32, so
// LoadState refuses a counter past math.MaxInt32 instead of truncating
// it — 1<<32 + 3 would otherwise restore as a plausible 3.
func TestDelayTrackerLoadStateRejectsWideCounters(t *testing.T) {
	const marker = 0x5eed_c0de
	for _, field := range []string{"fanout", "remain"} {
		saved := NewDelayTracker(0)
		saved.Arrive(pkt(1, 0, 0, 1, 2))
		st := saved.outstanding.Lookup(1)
		if field == "fanout" {
			st.fanout = marker
		} else {
			st.fanout, st.remain = 0, marker // a tainted packet: remain is free of fanout
		}
		w := snap.NewWriter()
		saved.SaveState(w)
		blob := w.Bytes()
		var old, wide [8]byte
		binary.LittleEndian.PutUint64(old[:], marker)
		binary.LittleEndian.PutUint64(wide[:], 1<<32+3)
		if bytes.Count(blob, old[:]) != 1 {
			t.Fatalf("%s: the marker is not in the blob exactly once", field)
		}
		r, err := snap.NewReader(bytes.Replace(blob, old[:], wide[:], 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := NewDelayTracker(0).LoadState(r); err == nil || !strings.Contains(err.Error(), "impossible state") {
			t.Errorf("%s of 1<<32 + 3: LoadState = %v, want an impossible-state error", field, err)
		}
	}
}
