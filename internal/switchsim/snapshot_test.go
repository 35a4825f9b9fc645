package switchsim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/experiment"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot blobs in testdata/")

// The golden runs: 4x4 simulations snapshotted mid-run, one per row of
// goldenSnaps. Their blobs are pinned in testdata/ so that any change
// to the checkpoint format — intended or not — fails the test until
// the format version is bumped and the goldens regenerated.
const (
	goldenAlgo = "fifoms" // the FuzzRestore default
	goldenN    = 4
	goldenSeed = 7
)

// goldenSnaps lists the pinned blobs. The eSLIP and WBA snapshots are
// taken while some multicast packet has left part of its fanout, so the
// pinned bytes hold a residue smaller than its destination set.
var goldenSnaps = []struct {
	algo string
	slot int64 // the snapshot resumes at this slot
}{
	{"fifoms", 200},
	{"eslip", 200},
	{"wba", 200},
}

// residueBuffered is the buffer iterator of the input-queued switches.
type residueBuffered interface {
	ForEachBuffered(fn func(in int, p *cell.Packet, remaining *destset.Set))
}

// partServed reports whether sw buffers a packet that has left part of
// its fanout.
func partServed(sw switchsim.Switch) bool {
	split := false
	if rb, ok := sw.(residueBuffered); ok {
		rb.ForEachBuffered(func(_ int, p *cell.Packet, remaining *destset.Set) {
			split = split || remaining.Count() < p.Dests.Count()
		})
	}
	return split
}

// goldenBlob runs algo's golden simulation and returns its snapshot at
// slot.
func goldenBlob(t *testing.T, algo string, slot int64) []byte {
	t.Helper()
	r, _ := buildRunner(t, algo, goldenN, goldenSeed, 0)
	var blob []byte
	if _, err := r.RunWithCheckpoints(algo, slot, func(nextSlot int64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("golden run emitted no checkpoint")
	}
	return blob
}

func TestSnapshotGolden(t *testing.T) {
	for _, g := range goldenSnaps {
		t.Run(g.algo, func(t *testing.T) {
			path := filepath.Join("testdata", fmt.Sprintf("%s_%dx%d.snap", g.algo, goldenN, goldenN))
			blob := goldenBlob(t, g.algo, g.slot)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden blob (run with -update-golden to create it): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("snapshot encoding changed: got %d bytes, golden has %d.\n"+
					"If the format changed intentionally, bump snap.Version and run with -update-golden.",
					len(blob), len(want))
			}

			// Compatibility: the pinned blob must still restore and resume
			// to the exact Results of today's uninterrupted run.
			m, err := snap.ReadMeta(want)
			if err != nil {
				t.Fatalf("golden blob meta: %v", err)
			}
			if m.Algorithm != g.algo || m.Ports != goldenN || m.NextSlot != g.slot {
				t.Fatalf("golden blob meta %+v does not match the pinned run", m)
			}
			straight, _ := buildRunner(t, g.algo, goldenN, goldenSeed, 0)
			wantRes := straight.Run(g.algo)
			resumed, _ := buildRunner(t, g.algo, goldenN, goldenSeed, 0)
			if err := resumed.Restore(g.algo, want); err != nil {
				t.Fatalf("restoring golden blob: %v", err)
			}
			if _, ok := resumed.Switch().(residueBuffered); ok && !partServed(resumed.Switch()) {
				t.Fatal("no buffered packet is part-served at the pinned slot")
			}
			if gotRes := resumed.Run(g.algo); gotRes != wantRes {
				t.Fatalf("golden blob resume diverged:\n got %+v\nwant %+v", gotRes, wantRes)
			}
		})
	}
}

// TestLoadStateRejectsRepeatedArrival crafts, for each switch on the
// input-queue store, a snapshot in which an input queues its head
// multicast packet a second time, and checks that Restore refuses it:
// one packet arrives per input per slot, so arrival stamps strictly
// increase along an input's queue. Restored, the copy would be
// delivered twice.
func TestLoadStateRejectsRepeatedArrival(t *testing.T) {
	for _, algo := range []string{"eslip", "wba"} {
		t.Run(algo, func(t *testing.T) {
			fresh := func() *switchsim.Runner {
				r, _ := buildRunner(t, algo, goldenN, goldenSeed, 0)
				return r
			}
			var blob []byte
			if _, err := fresh().RunWithCheckpoints(algo, 750, func(_ int64, b []byte) error {
				if blob == nil {
					blob = append([]byte(nil), b...)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			repeatHead(t, algo, blob, fresh)
		})
	}
}

// FuzzRestore drives the full restore chain — header, meta, engine
// stats, traffic sources, switch buffers, arbiter — with adversarial
// blobs. Any input must either restore cleanly or return an error;
// panics and unbounded allocations are bugs. The corpus is seeded with
// a valid snapshot plus truncated and bit-flipped variants of it; with
// an islip snapshot — copied mode, stateful arbiter — valid and with a
// copy's fanout counter raised to 2, which no SaveState writes; and
// with eslip and wba snapshots holding a part-served multicast packet,
// valid and with an input's head packet queued twice. The blob's meta
// picks the algorithm.
func FuzzRestore(f *testing.F) {
	// A short dedicated run (300 slots) keeps the post-restore
	// simulation cheap, so the fuzzer gets real throughput.
	build := func(tb testing.TB, algo string) *switchsim.Runner {
		tb.Helper()
		alg, err := experiment.ByName(algo)
		if err != nil {
			tb.Fatal(err)
		}
		root := xrand.New(goldenSeed)
		sw := alg.New(goldenN, root.Split("switch", 0))
		cfg := switchsim.Config{Slots: 300, Seed: goldenSeed, WarmupFrac: 0.25}
		return switchsim.New(sw, resumePattern(), cfg, root.Split("traffic", 0))
	}
	// blobWhen returns the first checkpoint, taken every `every` slots,
	// at which ready holds for the switch.
	blobWhen := func(algo string, every int64, ready func(switchsim.Switch) bool) []byte {
		var blob []byte
		r := build(f, algo)
		if _, err := r.RunWithCheckpoints(algo, every, func(_ int64, b []byte) error {
			if blob == nil && ready(r.Switch()) {
				blob = append([]byte(nil), b...)
			}
			return nil
		}); err != nil {
			f.Fatal(err)
		}
		if blob == nil {
			f.Fatalf("%s never reached the wanted state at a checkpoint", algo)
		}
		return blob
	}
	// blobAt returns the first checkpoint at which the switch buffers
	// at least minCells cells.
	blobAt := func(algo string, every, minCells int64) []byte {
		return blobWhen(algo, every, func(sw switchsim.Switch) bool { return sw.BufferedCells() >= minCells })
	}
	seedBlob := blobAt(goldenAlgo, 100, 0)
	f.Add([]byte(nil))
	f.Add(seedBlob)
	f.Add(seedBlob[:len(seedBlob)/2])
	f.Add(seedBlob[:8])
	for _, pos := range []int{6, 9, len(seedBlob) / 3, len(seedBlob) - 1} {
		mut := append([]byte(nil), seedBlob...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	islipBlob := blobAt("islip", 10, 1)
	f.Add(islipBlob)
	f.Add(raiseCopiedCounter(f, islipBlob, func() *switchsim.Runner { return build(f, "islip") }))
	f.Add(widenOutstanding(f, blobAt(goldenAlgo, 100, 2), func() *switchsim.Runner { return build(f, goldenAlgo) }))
	f.Add(sameSlotPackets(f, blobAt(goldenAlgo, 10, goldenN+1), func() *switchsim.Runner { return build(f, goldenAlgo) }))
	for _, algo := range []string{"eslip", "wba"} {
		split := blobWhen(algo, 10, partServed)
		f.Add(split)
		f.Add(repeatHead(f, algo, split, func() *switchsim.Runner { return build(f, algo) }))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		algo := goldenAlgo
		if m, err := snap.ReadMeta(data); err == nil && slices.Contains([]string{"islip", "eslip", "wba"}, m.Algorithm) {
			algo = m.Algorithm
		}
		r := build(t, algo)
		if err := r.Restore(algo, data); err != nil {
			return
		}
		// A blob that restores must also run to completion.
		r.Run(algo)
	})
}

// widenOutstanding returns a fifoms blob whose delay tracker holds
// outstanding packets 1 and 1<<44 — its lowest and highest outstanding
// IDs rewritten — after checking that a fresh runner restores the
// original and rejects the result for its ID span: a window holding both
// would double toward 2^45 entries once the IDs next to either are live.
func widenOutstanding(tb testing.TB, blob []byte, fresh func() *switchsim.Runner) []byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore(goldenAlgo, blob); err != nil {
		tb.Fatal(err)
	}
	// The tracker's entry for a packet starts with its id and arrival,
	// little-endian, and the engine section it lives in comes first, so
	// the first match is the tracker's. Packets that arrived before the
	// warm-up ended have no entry.
	var at []int
	seen := map[cell.PacketID]bool{}
	r.Switch().(*core.Switch).ForEachBuffered(func(_, _ int, p *cell.Packet) {
		if seen[p.ID] {
			return
		}
		seen[p.ID] = true
		entry := binary.LittleEndian.AppendUint64(nil, uint64(p.ID))
		entry = binary.LittleEndian.AppendUint64(entry, uint64(p.Arrival))
		if i := bytes.Index(blob, entry); i >= 0 {
			at = append(at, i)
		}
	})
	if len(at) < 2 {
		tb.Fatalf("%d outstanding packets at the checkpoint, want 2", len(at))
	}
	slices.Sort(at) // the tracker writes its entries in ascending ID order
	mut := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(mut[at[0]:], 1)
	binary.LittleEndian.PutUint64(mut[at[len(at)-1]:], 1<<44)
	if err := fresh().Restore(goldenAlgo, mut); err == nil || !strings.Contains(err.Error(), "span") {
		tb.Fatalf("outstanding IDs 1 and 1<<44: Restore = %v, want a span rejection", err)
	}
	return mut
}

// sameSlotPackets returns a fifoms blob in which one input buffers two
// packets of one arrival slot, after checking that a fresh runner
// restores the original and rejects the result. Loaded, it would make
// the first Step grant two data cells to that input.
func sameSlotPackets(tb testing.TB, blob []byte, fresh func() *switchsim.Runner) []byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore(goldenAlgo, blob); err != nil {
		tb.Fatal(err)
	}
	first := map[int]*cell.Packet{} // per input, the first packet visited
	var a, b *cell.Packet
	r.Switch().(*core.Switch).ForEachBuffered(func(in, _ int, p *cell.Packet) {
		switch f := first[in]; {
		case f == nil:
			first[in] = p
		case b == nil && f != p:
			a, b = f, p
		}
	})
	if b == nil {
		tb.Fatal("no input buffers two packets at the checkpoint")
	}
	// The switch's section comes last, and its table entry for a packet
	// starts with the id and the arrival, little-endian.
	entry := binary.LittleEndian.AppendUint64(nil, uint64(b.ID))
	entry = binary.LittleEndian.AppendUint64(entry, uint64(b.Arrival))
	at := bytes.LastIndex(blob, entry)
	if at < 0 {
		tb.Fatalf("no table entry for packet %d", b.ID)
	}
	mut := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(mut[at+8:], uint64(a.Arrival))
	if err := fresh().Restore(goldenAlgo, mut); err == nil || !strings.Contains(err.Error(), "two packets of slot") {
		tb.Fatalf("packets %d and %d in one slot: Restore = %v, want a rejection", a.ID, b.ID, err)
	}
	return mut
}

// repeatHead returns an eslip or wba blob in which one input queues its
// head multicast packet a second time, after checking that a fresh
// runner restores the original and rejects the result for the repeated
// arrival stamp.
func repeatHead(tb testing.TB, algo string, blob []byte, fresh func() *switchsim.Runner) []byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore(algo, blob); err != nil {
		tb.Fatal(err)
	}
	// Both iterators visit an input's multicast head before anything
	// else it buffers.
	var head *cell.Packet
	seen := map[int]bool{}
	r.Switch().(residueBuffered).ForEachBuffered(func(in int, p *cell.Packet, _ *destset.Set) {
		if head == nil && !seen[in] && p.Dests.Count() > 1 {
			head = p
		}
		seen[in] = true
	})
	if head == nil {
		tb.Fatal("no input has a multicast packet at its head at the checkpoint")
	}
	r.Switch().Arrive(head)
	m, err := snap.ReadMeta(blob)
	if err != nil {
		tb.Fatal(err)
	}
	mut, err := r.Snapshot(algo, m.NextSlot)
	if err != nil {
		tb.Fatal(err)
	}
	if err := fresh().Restore(algo, mut); err == nil || !strings.Contains(err.Error(), "behind slot") {
		tb.Fatalf("packet %d queued twice: Restore = %v, want a rejection", head.ID, err)
	}
	return mut
}

// raiseCopiedCounter returns an islip blob with the fanout counter of
// one buffered copy set to 2,
// after checking that a fresh runner restores the original and rejects
// the result.
func raiseCopiedCounter(tb testing.TB, blob []byte, fresh func() *switchsim.Runner) []byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore("islip", blob); err != nil {
		tb.Fatal(err)
	}
	var first *cell.Packet
	r.Switch().(*core.Switch).ForEachBuffered(func(_, _ int, p *cell.Packet) {
		if first == nil {
			first = p
		}
	})
	if first == nil {
		tb.Fatal("nothing buffered at the checkpoint")
	}
	// The table entry is id, arrival, counter (= 1), little-endian.
	entry := binary.LittleEndian.AppendUint64(nil, uint64(first.ID))
	entry = binary.LittleEndian.AppendUint64(entry, uint64(first.Arrival))
	entry = binary.LittleEndian.AppendUint64(entry, 1)
	at := bytes.Index(blob, entry)
	if at < 0 || bytes.Contains(blob[at+1:], entry) {
		tb.Fatalf("no unique table entry for packet %d", first.ID)
	}
	mut := append([]byte(nil), blob...)
	mut[at+16] = 2
	if err := fresh().Restore("islip", mut); err == nil || !strings.Contains(err.Error(), "copied mode") {
		tb.Fatalf("raised copied-mode counter: Restore = %v, want a rejection", err)
	}
	return mut
}
