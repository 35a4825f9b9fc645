package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// Arena-focused snapshot tests: the checkpoint format encodes logical
// buffer content (packet tables + VOQ index sequences, state.go), so
// it must be insensitive to everything the arena caches for speed —
// slab capacities, the free lists' order, and the HOL stamp/occ/minHOL
// caches, which LoadState regenerates by re-pushing through pushCell.

var updateArenaGolden = flag.Bool("update-golden", false, "rewrite the golden arena snapshot in testdata/")

// copiedStub is a minimal deterministic unicast arbiter (each output
// greedily takes the oldest eligible HOL cell, each input granted at
// most once), so the round-trip tests cover the ModeCopied per-copy
// slab layout without importing a scheduler package.
type copiedStub struct{ used []bool }

func (c *copiedStub) Mode() PreprocessMode { return ModeCopied }
func (c *copiedStub) Name() string         { return "copied-stub" }

func (c *copiedStub) Match(s *Switch, slot int64, r *xrand.Rand, m *Matching) {
	n := s.Ports()
	if len(c.used) != n {
		c.used = make([]bool, n)
	}
	for in := range c.used {
		c.used[in] = false
	}
	for out := 0; out < n; out++ {
		best, bestTS := None, int64(emptyHOL)
		for in := 0; in < n; in++ {
			if c.used[in] {
				continue
			}
			if ts := s.HOLTime(in, out); ts < bestTS {
				best, bestTS = in, ts
			}
		}
		if best != None {
			m.OutIn[out] = best
			c.used[best] = true
		}
	}
	m.Rounds = 1
}

// churnSwitch drives slots of random arrivals and departures so the
// arena's slabs grow and their free lists recycle entries — the
// states a snapshot must see through.
func churnSwitch(s *Switch, r *xrand.Rand, fromSlot, slots int64, nextID *cell.PacketID, deliver func(cell.Delivery)) {
	n := s.Ports()
	for slot := fromSlot; slot < fromSlot+slots; slot++ {
		for in := 0; in < n; in++ {
			if !r.Bool(0.6) {
				continue
			}
			d := destset.New(n)
			d.RandomBernoulli(r, 0.3)
			if d.Empty() {
				continue
			}
			*nextID++
			s.Arrive(&cell.Packet{ID: *nextID, Input: in, Arrival: slot, Dests: d})
		}
		s.Step(slot, deliver)
	}
}

type bufferedCell struct {
	in, out int
	id      cell.PacketID
	arrival int64
	dests   string
}

func bufferedContent(s *Switch) []bufferedCell {
	var out []bufferedCell
	s.ForEachBuffered(func(in, o int, p *cell.Packet) {
		out = append(out, bufferedCell{in, o, p.ID, p.Arrival, p.Dests.String()})
	})
	return out
}

// verifyCachedState cross-checks every incremental cache against the
// authoritative queues, exactly like TestCachedHOLStateCoherent does
// mid-run.
func verifyCachedState(t *testing.T, s *Switch) {
	t.Helper()
	n := s.Ports()
	for in := 0; in < n; in++ {
		wantMin := int64(emptyHOL)
		wantMask := make([]uint64, s.words)
		for out := 0; out < n; out++ {
			ts := s.HOLTime(in, out)
			if s.VOQLen(in, out) == 0 {
				if ts != emptyHOL {
					t.Fatalf("(%d,%d): empty VOQ cached ts %d", in, out, ts)
				}
				continue
			}
			if head := s.arena.front(in*n + out).ts; ts != head {
				t.Fatalf("(%d,%d): HOL ts %d cached as %d", in, out, head, ts)
			}
			switch {
			case ts < wantMin:
				wantMin = ts
				clear(wantMask)
				wantMask[out>>6] = 1 << uint(out&63)
			case ts == wantMin:
				wantMask[out>>6] |= 1 << uint(out&63)
			}
		}
		if s.minHOL[in] != wantMin {
			t.Fatalf("input %d: minHOL %d, scan says %d", in, s.minHOL[in], wantMin)
		}
		for wi := 0; wi < s.words; wi++ {
			if s.minMask[in*s.words+wi] != wantMask[wi] {
				t.Fatalf("input %d: minMask word %d is %#x, scan says %#x",
					in, wi, s.minMask[in*s.words+wi], wantMask[wi])
			}
		}
	}
}

// TestArenaSnapshotRoundTrip churns a switch, snapshots it, restores
// into a fresh switch, and requires (a) identical logical buffer
// content, (b) coherent rebuilt caches, and (c) bit-identical behavior
// from that point on — in both slab modes and at a word-boundary size.
func TestArenaSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		n    int
		arb  func() Arbiter
	}{
		{"shared-9", 9, func() Arbiter { return &FIFOMS{} }},
		{"copied-9", 9, func() Arbiter { return &copiedStub{} }},
		{"shared-65", 65, func() Arbiter { return &FIFOMS{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSwitch(tc.n, tc.arb(), xrand.New(21))
			traffic := xrand.New(22)
			id := cell.PacketID(0)
			churnSwitch(s, traffic, 0, 300, &id, func(cell.Delivery) {})

			w := snap.NewWriter()
			s.SaveState(w)
			blob := w.Bytes()

			restored := NewSwitch(tc.n, tc.arb(), xrand.New(99)) // rnd state travels in the blob
			r, err := snap.NewReader(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadState(r); err != nil {
				t.Fatal(err)
			}

			want, got := bufferedContent(s), bufferedContent(restored)
			if len(want) != len(got) {
				t.Fatalf("restored %d buffered cells, want %d", len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("buffered cell %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			verifyCachedState(t, restored)

			// Same arrivals from here on must produce the same deliveries.
			var origDel, restDel []cell.Delivery
			contO, contR := xrand.New(23), xrand.New(23)
			idO, idR := id, id
			churnSwitch(s, contO, 300, 200, &idO, func(d cell.Delivery) { origDel = append(origDel, d) })
			churnSwitch(restored, contR, 300, 200, &idR, func(d cell.Delivery) { restDel = append(restDel, d) })
			if len(origDel) != len(restDel) {
				t.Fatalf("restored run delivered %d copies, original %d", len(restDel), len(origDel))
			}
			for i := range origDel {
				if origDel[i] != restDel[i] {
					t.Fatalf("delivery %d: restored %+v, original %+v", i, restDel[i], origDel[i])
				}
			}
		})
	}
}

// TestArenaSnapshotGolden pins the raw core-section bytes of a fixed
// churned 9x9 switch. The encoding predates the cell arena; this
// golden guards that the arena (or any future storage backend) cannot
// leak layout details into the blob. Regenerate with -update-golden
// after an intentional format change (and bump snap.Version).
func TestArenaSnapshotGolden(t *testing.T) {
	const n = 9
	s := NewSwitch(n, &FIFOMS{}, xrand.New(21))
	traffic := xrand.New(22)
	id := cell.PacketID(0)
	churnSwitch(s, traffic, 0, 300, &id, func(cell.Delivery) {})
	w := snap.NewWriter()
	s.SaveState(w)
	blob := w.Bytes()

	golden := filepath.Join("testdata", fmt.Sprintf("arena_%dx%d.snap", n, n))
	if *updateArenaGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden blob (run with -update-golden to create it): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("core section encoding changed: got %d bytes, golden has %d.\n"+
			"If intentional, bump snap.Version and regenerate with -update-golden.",
			len(blob), len(want))
	}

	// The pinned bytes must keep restoring.
	restored := NewSwitch(n, &FIFOMS{}, xrand.New(99))
	r, err := snap.NewReader(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(r); err != nil {
		t.Fatal(err)
	}
	verifyCachedState(t, restored)
}
