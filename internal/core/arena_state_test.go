package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
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
			if head := s.front(s.queue(in, out)).ts; ts != head {
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
		if open := 0; s.ranked {
			for _, wv := range s.OccInWords(in) {
				open += bits.OnesCount64(wv)
			}
			if len(s.rows[in]) != open {
				t.Fatalf("input %d: ranked row holds %d records for %d non-empty VOQs", in, len(s.rows[in]), open)
			}
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

// Hand-encoded core sections for the rejection table below: the same
// layout SaveState writes (state.go), with every field a row may want
// to get wrong exposed.
type snapPacket struct {
	id, arrival int64
	counter     int
	dests       []int
}

type snapPort struct {
	packets []snapPacket
	voqs    map[int][]int // out -> packet-table indices, front to back
	guard   int64         // when non-zero, the arrival guard written instead of the derived one
}

// encodeCore writes one core section of an n-port switch seeded like
// NewSwitch(n, arb, xrand.New(1)) that has never stepped, holding ports
// (inputs past len(ports) are empty).
func encodeCore(n int, mode PreprocessMode, ports []snapPort) []byte {
	w := snap.NewWriter()
	w.Begin("core")
	w.Int(n)
	w.U8(uint8(mode))
	snap.WriteRand(w, xrand.New(1).Split("arbiter", 0))
	w.Int(0) // lastRounds
	w.I64(0) // totalRounds
	w.I64(0) // activeSlots
	for i := 0; i < 4; i++ {
		w.I64(0) // transfer counters
	}
	for in := 0; in < n; in++ {
		var p snapPort
		if in < len(ports) {
			p = ports[in]
		}
		last := int64(-1) // the arrival guard, which only ModeShared's Arrive sets
		for _, pk := range p.packets {
			if mode == ModeShared {
				last = max(last, pk.arrival)
			}
		}
		if p.guard != 0 {
			last = p.guard
		}
		w.I64(last)
		w.Count(len(p.packets))
		for _, pk := range p.packets {
			w.I64(pk.id)
			w.I64(pk.arrival)
			w.Int(pk.counter)
			snap.WriteDests(w, destset.FromMembers(n, pk.dests...))
		}
		for out := 0; out < n; out++ {
			w.Count(len(p.voqs[out]))
			for _, idx := range p.voqs[out] {
				w.Int(idx)
			}
		}
	}
	w.Bool(false) // neither FIFOMS nor copiedStub keeps arbiter state
	w.End()
	return w.Bytes()
}

// TestLoadStateRejects pins LoadState's refusals: every row is a
// well-framed core section whose content no SaveState could write, and
// it must fail with its reason, not load into a switch whose transfer
// loop would then mis-time a release. Each mode's untampered row loads,
// and is byte-equal to what a real switch holding it saves.
func TestLoadStateRejects(t *testing.T) {
	const n = 4
	multicast := func(counter int, voqs map[int][]int) []snapPort {
		return []snapPort{{packets: []snapPacket{{id: 1, arrival: 0, counter: counter, dests: []int{0, 1}}}, voqs: voqs}}
	}
	both := map[int][]int{0: {0}, 1: {0}}
	arbiter := map[PreprocessMode]func() Arbiter{
		ModeShared: func() Arbiter { return &FIFOMS{} },
		ModeCopied: func() Arbiter { return &copiedStub{} },
	}
	for _, tc := range []struct {
		name  string
		mode  PreprocessMode
		ports []snapPort
		want  string // "" loads
	}{
		{"shared valid", ModeShared, multicast(2, both), ""},
		{"copied valid", ModeCopied, multicast(1, both), ""},
		{"copied counter 2", ModeCopied, multicast(2, both), "counter 2 in copied mode"},
		{"shared counter above queued cells", ModeShared, multicast(2, map[int][]int{0: {0}}), "1 queued cells but fanout counter 2"},
		{"counter zero", ModeShared, multicast(0, both), "fanout counter 0 outside [1,2]"},
		{"counter above fanout", ModeShared, multicast(3, both), "fanout counter 3 outside [1,2]"},
		{"copied packet with no cells", ModeCopied, multicast(1, nil), "has no queued cells"},
		{"index out of range", ModeCopied, multicast(1, map[int][]int{0: {1}}), "references packet index 1 of 1"},
		{"cell for an output not addressed", ModeCopied, multicast(1, map[int][]int{2: {0}}), "not addressed to 2"},
		{"shared two packets of one slot", ModeShared, []snapPort{{
			packets: []snapPacket{{id: 1, arrival: 0, counter: 1, dests: []int{0}}, {id: 2, arrival: 0, counter: 1, dests: []int{1}}},
			voqs:    map[int][]int{0: {0}, 1: {1}},
		}}, "input 0 buffers two packets of slot 0"},
		{"shared stamps decreasing along a VOQ", ModeShared, []snapPort{{
			packets: []snapPacket{{id: 1, arrival: 1, counter: 1, dests: []int{0}}, {id: 2, arrival: 0, counter: 1, dests: []int{0}}},
			voqs:    map[int][]int{0: {0, 1}},
		}}, "VOQ(0,0) queues slot 0 behind slot 1"},
		{"shared guard below a buffered arrival", ModeShared, []snapPort{{
			packets: []snapPacket{{id: 1, arrival: 2, counter: 1, dests: []int{0}}},
			voqs:    map[int][]int{0: {0}},
			guard:   1,
		}}, "input 0 buffers packet 1 of slot 2 past its last arrival 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := encodeCore(n, tc.mode, tc.ports)
			r, err := snap.NewReader(blob)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSwitch(n, arbiter[tc.mode](), xrand.New(1))
			err = s.LoadState(r)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid section rejected: %v", err)
				}
				real := NewSwitch(n, arbiter[tc.mode](), xrand.New(1))
				real.Arrive(&cell.Packet{ID: 1, Input: 0, Arrival: 0, Dests: destset.FromMembers(n, 0, 1)})
				w := snap.NewWriter()
				real.SaveState(w)
				if !bytes.Equal(blob, w.Bytes()) {
					t.Fatal("encodeCore no longer writes SaveState's layout")
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), "snap: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState = %v, want a snap: error containing %q", err, tc.want)
			}
		})
	}
}
