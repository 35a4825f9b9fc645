package switchsim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/experiment"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot blob in testdata/")

// The golden run: a 4x4 FIFOMS simulation snapshotted halfway. Its
// blob is pinned in testdata/ so that any change to the checkpoint
// format — intended or not — fails the test until the format version
// is bumped and the golden regenerated.
const (
	goldenAlgo = "fifoms"
	goldenN    = 4
	goldenSeed = 7
	goldenSlot = 200 // snapshot taken resuming at this slot
)

var goldenPath = filepath.Join("testdata", "fifoms_4x4.snap")

// goldenBlob runs the golden simulation and returns its mid-run
// snapshot.
func goldenBlob(t *testing.T) []byte {
	t.Helper()
	r, _ := buildRunner(t, goldenAlgo, goldenN, goldenSeed, 0)
	var blob []byte
	if _, err := r.RunWithCheckpoints(goldenAlgo, goldenSlot, func(nextSlot int64, b []byte) error {
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
	blob := goldenBlob(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden blob (run with -update-golden to create it): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("snapshot encoding changed: got %d bytes, golden has %d.\n"+
			"If the format changed intentionally, bump snap.Version and run with -update-golden.",
			len(blob), len(want))
	}

	// Compatibility: the pinned blob must still restore and resume to
	// the exact Results of today's uninterrupted run.
	m, err := snap.ReadMeta(want)
	if err != nil {
		t.Fatalf("golden blob meta: %v", err)
	}
	if m.Algorithm != goldenAlgo || m.Ports != goldenN || m.NextSlot != goldenSlot {
		t.Fatalf("golden blob meta %+v does not match the pinned run", m)
	}
	straight, _ := buildRunner(t, goldenAlgo, goldenN, goldenSeed, 0)
	wantRes := straight.Run(goldenAlgo)
	resumed, _ := buildRunner(t, goldenAlgo, goldenN, goldenSeed, 0)
	gotRes, err := resumed.ResumeRun(goldenAlgo, want)
	if err != nil {
		t.Fatalf("resuming golden blob: %v", err)
	}
	if gotRes != wantRes {
		t.Fatalf("golden blob resume diverged:\n got %+v\nwant %+v", gotRes, wantRes)
	}
}

// FuzzRestore drives the full restore chain — header, meta, engine
// stats, traffic sources, switch buffers, arbiter — with adversarial
// blobs. Any input must either restore cleanly or return an error;
// panics and unbounded allocations are bugs. The corpus is seeded with
// a valid snapshot plus truncated and bit-flipped variants of it, and
// with an islip snapshot — copied mode, stateful arbiter — valid and
// with a copy's fanout counter raised to 2, which no SaveState writes.
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
	// blobAt returns the first checkpoint, taken every `every` slots,
	// at which the switch buffers at least minCells cells.
	blobAt := func(algo string, every, minCells int64) []byte {
		var blob []byte
		r := build(f, algo)
		if _, err := r.RunWithCheckpoints(algo, every, func(_ int64, b []byte) error {
			if blob == nil && r.Switch().BufferedCells() >= minCells {
				blob = append([]byte(nil), b...)
			}
			return nil
		}); err != nil {
			f.Fatal(err)
		}
		if blob == nil {
			f.Fatalf("%s never buffered %d cells at a checkpoint", algo, minCells)
		}
		return blob
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

	f.Fuzz(func(t *testing.T, data []byte) {
		algo := goldenAlgo
		if m, err := snap.ReadMeta(data); err == nil && m.Algorithm == "islip" {
			algo = "islip"
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
