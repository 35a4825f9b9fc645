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
	"voqsim/internal/cioq"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/experiment"
	"voqsim/internal/oq"
	"voqsim/internal/roster"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/tatra"
	"voqsim/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot blobs in testdata/")

// The golden runs: 4x4 simulations snapshotted at goldenSlot, one per
// roster architecture (internal/roster). Their blobs are pinned in
// testdata/ so that any change to the checkpoint format — intended or
// not — fails the test until the format version is bumped and the
// goldens regenerated.
const (
	goldenAlgo = "fifoms" // the FuzzRestore default
	goldenN    = 4
	goldenSeed = 7
	goldenSlot = 200 // the snapshot resumes at this slot
)

// goldenReady holds, for the blobs pinned in a particular state, the
// state ready asserts after restore: the input-queued switches with a
// multicast packet that has left part of its fanout (so the pinned
// bytes hold a residue smaller than its destination set, and TATRA's
// board holds the rest), OQFIFO with copies queued, and CIOQ with both
// stages non-empty.
var goldenReady = map[string]func(sw switchsim.Switch, delivered map[cell.PacketID]bool) bool{
	"eslip":   partServed,
	"wba":     partServed,
	"tatra":   servedOnBoard,
	"oqfifo":  buffers,
	"cioq-s2": bothStages,
}

// bufferedCopy is one visit of a switch's buffer walk.
type bufferedCopy struct {
	in, out int
	id      cell.PacketID
	arrival int64
}

// bufferedCopies returns every copy sw buffers, in walk order.
func bufferedCopies(sw switchsim.Switch) []bufferedCopy {
	var cs []bufferedCopy
	sw.ForEachCopy(func(in, out int, id cell.PacketID, arrival int64) {
		cs = append(cs, bufferedCopy{in, out, id, arrival})
	})
	return cs
}

// partServed reports whether sw buffers a copy of a packet that has
// already delivered one, given the IDs delivered so far.
func partServed(sw switchsim.Switch, delivered map[cell.PacketID]bool) bool {
	for _, c := range bufferedCopies(sw) {
		if delivered[c.id] {
			return true
		}
	}
	return false
}

// servedOnBoard reports whether a TATRA head that has delivered a copy
// still has blocks on the board.
func servedOnBoard(sw switchsim.Switch, delivered map[cell.PacketID]bool) bool {
	cols, _, _ := tatraBoard(sw.(*tatra.Switch))
	blocks, _ := placedHeads(cols)
	for _, c := range bufferedCopies(sw) {
		if delivered[c.id] && blocks[c.in] > 0 {
			return true
		}
	}
	return false
}

// buffers reports whether sw buffers anything.
func buffers(sw switchsim.Switch, _ map[cell.PacketID]bool) bool { return sw.BufferedCells() > 0 }

// bothStages reports whether a CIOQ switch buffers cells at its inputs
// and copies at its outputs.
func bothStages(sw switchsim.Switch, _ map[cell.PacketID]bool) bool {
	c := sw.(*cioq.Switch)
	sum := func(v []int) (t int) {
		for _, x := range v {
			t += x
		}
		return t
	}
	return sum(c.QueueSizes(make([]int, c.Ports()))) > 0 && sum(c.OutputQueueSizes(make([]int, c.Ports()))) > 0
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
	for _, algo := range roster.Names(roster.SnapshotGolden) {
		t.Run(algo, func(t *testing.T) {
			path := filepath.Join("testdata", fmt.Sprintf("%s_%dx%d.snap", algo, goldenN, goldenN))
			blob := goldenBlob(t, algo, goldenSlot)
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
			if m.Algorithm != algo || m.Ports != goldenN || m.NextSlot != goldenSlot {
				t.Fatalf("golden blob meta %+v does not match the pinned run", m)
			}
			straight, _ := buildRunner(t, algo, goldenN, goldenSeed, 0)
			delivered := map[cell.PacketID]bool{}
			straight.OnDelivery(func(d cell.Delivery) {
				if d.Slot < goldenSlot {
					delivered[d.ID] = true
				}
			})
			wantRes := straight.Run(algo)
			resumed, _ := buildRunner(t, algo, goldenN, goldenSeed, 0)
			if err := resumed.Restore(algo, want); err != nil {
				t.Fatalf("restoring golden blob: %v", err)
			}
			if ready := goldenReady[algo]; ready != nil && !ready(resumed.Switch(), delivered) {
				t.Fatal("the restored switch is not in the state the row pins")
			}
			if gotRes := resumed.Run(algo); gotRes != wantRes {
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

// TestLoadStateRejectsBoard checks that Restore refuses each of
// tatraMutants' board defects, any of which Step would panic on.
func TestLoadStateRejectsBoard(t *testing.T) {
	fresh := func() *switchsim.Runner {
		r, _ := buildRunner(t, "tatra", goldenN, goldenSeed, 0)
		return r
	}
	blob := checkpointWhen(t, fresh(), "tatra", 10, func(sw switchsim.Switch, _ map[cell.PacketID]bool) bool {
		return tatraShaped(sw.(*tatra.Switch))
	})
	tatraMutants(t, blob, fresh)
}

// TestLoadStateRejectsOutputCopy checks that Restore refuses each of
// oqMutants' impossible output-queue copies.
func TestLoadStateRejectsOutputCopy(t *testing.T) {
	fresh := func() *switchsim.Runner {
		r, _ := buildRunner(t, "oqfifo", goldenN, goldenSeed, 0)
		return r
	}
	blob := checkpointWhen(t, fresh(), "oqfifo", 10, buffers)
	oqMutants(t, blob, fresh)
}

// FuzzRestore drives the full restore chain — header, meta, engine
// stats, traffic sources, switch buffers, arbiter — with adversarial
// blobs. Any input must either restore cleanly or return an error;
// panics and unbounded allocations are bugs. The corpus is seeded with
// a valid snapshot plus truncated and bit-flipped variants of it; with
// a valid snapshot of every roster architecture (internal/roster)
// holding at least one cell; with the islip one — copied mode, stateful
// arbiter — with a copy's fanout counter raised to 2, which no
// SaveState writes;
// with eslip and wba snapshots holding a part-served multicast packet,
// valid and with an input's head packet queued twice; with a tatra
// snapshot, valid and with each of four board defects (tatraMutants);
// with an oqfifo snapshot, valid and with a copy from an input, at an
// output or with an arrival outside the switch or the run (oqMutants);
// and with a cioq-s2 snapshot whose two stages both hold copies. The
// blob's meta picks the algorithm when it names a roster entry; any
// other blob is restored into fifoms.
func FuzzRestore(f *testing.F) {
	algos := roster.Names(roster.RestoreFuzz)
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
	blobWhen := func(algo string, every int64, ready func(switchsim.Switch, map[cell.PacketID]bool) bool) []byte {
		return checkpointWhen(f, build(f, algo), algo, every, ready)
	}
	// blobAt returns the first checkpoint at which the switch buffers
	// at least minCells cells.
	blobAt := func(algo string, every, minCells int64) []byte {
		return blobWhen(algo, every, func(sw switchsim.Switch, _ map[cell.PacketID]bool) bool {
			return sw.BufferedCells() >= minCells
		})
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
	plain := map[string][]byte{}
	for _, algo := range algos {
		plain[algo] = blobAt(algo, 10, 1)
		f.Add(plain[algo])
	}
	islipBlob := plain["islip"]
	f.Add(raiseCopiedCounter(f, islipBlob, func() *switchsim.Runner { return build(f, "islip") }))
	f.Add(widenOutstanding(f, blobAt(goldenAlgo, 100, 2), func() *switchsim.Runner { return build(f, goldenAlgo) }))
	f.Add(sameSlotPackets(f, blobAt(goldenAlgo, 10, goldenN+1), func() *switchsim.Runner { return build(f, goldenAlgo) }))
	for _, algo := range []string{"eslip", "wba"} {
		split := blobWhen(algo, 10, partServed)
		f.Add(split)
		f.Add(repeatHead(f, algo, split, func() *switchsim.Runner { return build(f, algo) }))
	}
	tatraFresh := func() *switchsim.Runner { return build(f, "tatra") }
	tatraBlob := blobWhen("tatra", 10, func(sw switchsim.Switch, _ map[cell.PacketID]bool) bool {
		return tatraShaped(sw.(*tatra.Switch))
	})
	f.Add(tatraBlob)
	for _, mut := range tatraMutants(f, tatraBlob, tatraFresh) {
		f.Add(mut)
	}
	for _, mut := range oqMutants(f, plain["oqfifo"], func() *switchsim.Runner { return build(f, "oqfifo") }) {
		f.Add(mut)
	}
	f.Add(blobWhen("cioq-s2", 10, bothStages))

	f.Fuzz(func(t *testing.T, data []byte) {
		algo := goldenAlgo
		if m, err := snap.ReadMeta(data); err == nil && slices.Contains(algos, m.Algorithm) {
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

// checkpointWhen runs r with a checkpoint every `every` slots and
// returns the first at which ready holds for the switch, given the IDs
// of the packets that have delivered a copy.
func checkpointWhen(tb testing.TB, r *switchsim.Runner, algo string, every int64, ready func(switchsim.Switch, map[cell.PacketID]bool) bool) []byte {
	tb.Helper()
	var blob []byte
	delivered := map[cell.PacketID]bool{}
	r.OnDelivery(func(d cell.Delivery) { delivered[d.ID] = true })
	if _, err := r.RunWithCheckpoints(algo, every, func(_ int64, b []byte) error {
		if blob == nil && ready(r.Switch(), delivered) {
			blob = append([]byte(nil), b...)
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	if blob == nil {
		tb.Fatalf("%s never reached the wanted state at a checkpoint", algo)
	}
	return blob
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

// repeatHead returns an eslip or wba blob in which one input queues
// its head packet a second time, after checking that a fresh runner
// restores the original and rejects the result for the repeated
// arrival stamp.
func repeatHead(tb testing.TB, algo string, blob []byte, fresh func() *switchsim.Runner) []byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore(algo, blob); err != nil {
		tb.Fatal(err)
	}
	// Both walks visit the input-queue store first, input by input and
	// each queue from its head; eSLIP's unicast VOQs follow. The copy
	// arrives again as a multicast packet to every output.
	cs := bufferedCopies(r.Switch())
	if len(cs) == 0 {
		tb.Fatal("nothing buffered at the checkpoint")
	}
	head := &cell.Packet{ID: cs[0].id, Input: cs[0].in, Arrival: cs[0].arrival, Dests: destset.New(goldenN)}
	for out := 0; out < goldenN; out++ {
		head.Dests.Add(out)
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

// tatraBoard returns sw's board columns, bottom to top, read from its
// own snapshot section: the section's length and the offset of the
// board within it, after the input queues.
func tatraBoard(sw *tatra.Switch) (cols [][]int, sectionLen, boardAt int) {
	hdr := len(snap.NewWriter().Bytes())
	w := snap.NewWriter()
	sw.SaveState(w)
	sec := w.Bytes()[hdr:]
	q := snap.NewWriter()
	q.Begin("tatra")
	q.Int(sw.Ports())
	for in := 0; in < sw.Ports(); in++ {
		sw.SaveInput(q, in)
	}
	q.End()
	boardAt = len(q.Bytes()) - hdr
	board := sec[boardAt:]
	for out := 0; out < sw.Ports(); out++ {
		col := make([]int, binary.LittleEndian.Uint32(board))
		board = board[4:]
		for i := range col {
			col[i] = int(binary.LittleEndian.Uint64(board))
			board = board[8:]
		}
		cols = append(cols, col)
	}
	return cols, len(sec), boardAt
}

// withBoard returns a copy of the tatra runner blob with its board
// replaced by cols.
func withBoard(blob []byte, sectionLen, boardAt int, cols [][]int) []byte {
	start := len(blob) - sectionLen
	out := append([]byte(nil), blob[:start+boardAt]...)
	for _, col := range cols {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(col)))
		for _, in := range col {
			out = binary.LittleEndian.AppendUint64(out, uint64(in))
		}
	}
	lenAt := start + 1 + len("tatra")
	binary.LittleEndian.PutUint32(out[lenAt:], uint32(len(out)-lenAt-4))
	return out
}

// placedHeads returns, per input with a block on the board, its block
// count, and the inputs in ascending order.
func placedHeads(cols [][]int) (map[int]int, []int) {
	blocks := map[int]int{}
	for _, col := range cols {
		for _, in := range col {
			blocks[in]++
		}
	}
	ins := make([]int, 0, len(blocks))
	for in := range blocks {
		ins = append(ins, in)
	}
	slices.Sort(ins)
	return blocks, ins
}

// tatraShaped reports whether sw's board has what each of
// tatraMutants' defects starts from: a placed head that does not owe
// every output, a placed head with two blocks, and an empty input.
func tatraShaped(sw *tatra.Switch) bool {
	cols, _, _ := tatraBoard(sw)
	blocks, ins := placedHeads(cols)
	var short, two, empty bool
	for _, in := range ins {
		short = short || sw.Front(in).Remaining.Count() < sw.Ports()
		two = two || blocks[in] >= 2
	}
	for in := 0; in < sw.Ports(); in++ {
		empty = empty || sw.Len(in) == 0
	}
	return short && two && empty
}

// tatraMutants returns four tatra blobs, each with one board defect
// that would reach Step's panic — a block for an output its input's
// head does not owe, a placed head missing a block, an input twice in
// one column, a block for an empty input — after checking that a fresh
// runner restores the original and refuses each mutant for its defect.
func tatraMutants(tb testing.TB, blob []byte, fresh func() *switchsim.Runner) [][]byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore("tatra", blob); err != nil {
		tb.Fatal(err)
	}
	sw := r.Switch().(*tatra.Switch)
	if !tatraShaped(sw) {
		tb.Fatal("the tatra checkpoint's board lacks a shape the mutants start from")
	}
	cols, sectionLen, boardAt := tatraBoard(sw)
	blocks, ins := placedHeads(cols)
	edit := func(fn func(cols [][]int) bool) [][]int {
		c := make([][]int, len(cols))
		for i := range cols {
			c[i] = slices.Clone(cols[i])
		}
		if !fn(c) {
			tb.Fatalf("board %v has no place for the defect", cols)
		}
		return c
	}
	cases := []struct {
		want string
		cols [][]int
	}{
		{"does not owe", edit(func(c [][]int) bool {
			for _, in := range ins {
				for out := range c {
					if !sw.Front(in).Remaining.Contains(out) {
						c[out] = append(c[out], in)
						return true
					}
				}
			}
			return false
		})},
		{"without a block", edit(func(c [][]int) bool {
			for out, col := range c {
				for i, in := range col {
					if blocks[in] >= 2 {
						c[out] = slices.Delete(col, i, i+1)
						return true
					}
				}
			}
			return false
		})},
		{"twice", edit(func(c [][]int) bool {
			for out, col := range c {
				if len(col) > 0 {
					c[out] = append(col, col[0])
					return true
				}
			}
			return false
		})},
		{"empty or absent", edit(func(c [][]int) bool {
			for in := 0; in < sw.Ports(); in++ {
				if sw.Len(in) == 0 {
					c[0] = append(c[0], in)
					return true
				}
			}
			return false
		})},
	}
	var muts [][]byte
	for _, tc := range cases {
		mut := withBoard(blob, sectionLen, boardAt, tc.cols)
		if err := fresh().Restore("tatra", mut); err == nil || !strings.Contains(err.Error(), tc.want) {
			tb.Fatalf("board %v: Restore = %v, want a %q rejection", tc.cols, err, tc.want)
		}
		muts = append(muts, mut)
	}
	return muts
}

// oqMutants returns three oqfifo blobs, each with one queued copy the
// switch could not hold — from input N, at output N, with an arrival
// at the resume slot — after checking that a fresh runner restores the
// original and refuses each mutant.
func oqMutants(tb testing.TB, blob []byte, fresh func() *switchsim.Runner) [][]byte {
	tb.Helper()
	r := fresh()
	if err := r.Restore("oqfifo", blob); err != nil {
		tb.Fatal(err)
	}
	m, err := snap.ReadMeta(blob)
	if err != nil {
		tb.Fatal(err)
	}
	sw := r.Switch().(*oq.Switch)
	hdr := len(snap.NewWriter().Bytes())
	w := snap.NewWriter()
	sw.SaveState(w)
	start := len(blob) - (len(w.Bytes()) - hdr)
	lenAt := start + 1 + len("oq")
	// The payload is the port count, then per output a count and one
	// (id, input, arrival) triple per copy.
	at := lenAt + 4 + 8
	for binary.LittleEndian.Uint32(blob[at:]) == 0 {
		at += 4
	}
	first := at + 4
	patch := func(off int, v uint64) []byte {
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(mut[first+off:], v)
		return mut
	}
	extra := binary.LittleEndian.AppendUint32(append([]byte(nil), blob...), 1)
	extra = append(extra, blob[first:first+24]...)
	binary.LittleEndian.PutUint32(extra[lenAt:], uint32(len(extra)-lenAt-4))
	cases := []struct {
		want string
		blob []byte
	}{
		{"from input", patch(8, uint64(sw.Ports()))},
		{"unconsumed", extra},
		{"arrival", patch(16, uint64(m.NextSlot))},
	}
	var muts [][]byte
	for _, tc := range cases {
		if err := fresh().Restore("oqfifo", tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			tb.Fatalf("Restore = %v, want a %q rejection", err, tc.want)
		}
		muts = append(muts, tc.blob)
	}
	return muts
}
