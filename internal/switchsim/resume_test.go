package switchsim_test

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/experiment"
	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The resume-equals-straight-run differential grid: for every roster
// architecture (internal/roster), switch size and seed, a run that is
// snapshotted at a pseudo-random mid-run slot and resumed in a fresh
// process context must be bit-identical to the uninterrupted run —
// delivery for delivery and statistic for statistic — and a restored
// switch wrapped in the invariant checker must hold all 8 invariants
// for the remainder of the run.

var resumeSeeds = []uint64{1, 42, 0xfeedface}

func resumeSlots(n int) int64 {
	switch {
	case n <= 4:
		return 1500
	case n <= 16:
		return 1000
	default:
		return 400
	}
}

func resumePattern() traffic.Pattern {
	// Load 0.6 per output with fanouts 1..4: both unicast and
	// multicast packets in flight.
	return traffic.Uniform{P: 0.24, MaxFanout: 4}
}

// buildRunner mirrors the facade's construction exactly (voqsim.Run):
// one seed root, the switch on Split("switch",0), the traffic on
// Split("traffic",0). Resume correctness depends on a restored runner
// being built through the identical derivation. With checkEvery > 0
// the switch is wrapped in the invariant checker.
func buildRunner(tb testing.TB, algo string, n int, seed uint64, checkEvery int64) (*switchsim.Runner, *check.Checker) {
	tb.Helper()
	alg, err := experiment.ByName(algo)
	if err != nil {
		tb.Fatal(err)
	}
	root := xrand.New(seed)
	sw := alg.New(n, root.Split("switch", 0))
	cfg := switchsim.Config{Slots: resumeSlots(n), Seed: seed, WarmupFrac: 0.25}
	if checkEvery > 0 {
		return switchsim.NewChecked(sw, resumePattern(), cfg, root.Split("traffic", 0),
			check.Options{Every: checkEvery})
	}
	return switchsim.New(sw, resumePattern(), cfg, root.Split("traffic", 0)), nil
}

// snapSlotFor derives the deterministic pseudo-random mid-run snapshot
// slot of one grid point, in [1, slots-2].
func snapSlotFor(algo string, n int, seed uint64, slots int64) int64 {
	h := seed
	for _, c := range algo {
		h = h*31 + uint64(c)
	}
	h ^= uint64(n) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return 1 + int64(h%uint64(slots-2))
}

func TestResumeEqualsStraightRun(t *testing.T) {
	sizes := []int{4, 16, 64}
	seeds := resumeSeeds
	if testing.Short() {
		sizes = []int{4, 16}
		seeds = seeds[:1]
	}
	for _, algo := range roster.Names(roster.Resume) {
		for _, n := range sizes {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/n=%d/seed=%d", algo, n, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					testResumePoint(t, algo, n, seed)
				})
			}
		}
	}
}

func testResumePoint(t *testing.T, algo string, n int, seed uint64) {
	slots := resumeSlots(n)
	snapSlot := snapSlotFor(algo, n, seed, slots)

	// Straight run, no checkpointing: the ground truth.
	straight, _ := buildRunner(t, algo, n, seed, 0)
	var wantDel []cell.Delivery
	straight.OnDelivery(func(d cell.Delivery) {
		if d.Slot >= snapSlot {
			wantDel = append(wantDel, d)
		}
	})
	want := straight.Run(algo)

	// The same run with a checkpoint taken mid-flight: checkpointing
	// must be passive (identical Results), and the blob is the input to
	// the resume legs.
	ckpt, _ := buildRunner(t, algo, n, seed, 0)
	var blob []byte
	got, err := ckpt.RunWithCheckpoints(algo, snapSlot, func(nextSlot int64, b []byte) error {
		if blob == nil {
			if nextSlot != snapSlot {
				t.Fatalf("first checkpoint at slot %d, want %d", nextSlot, snapSlot)
			}
			blob = append([]byte(nil), b...)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunWithCheckpoints: %v", err)
	}
	if got != want {
		t.Errorf("checkpointing changed the run:\n got %+v\nwant %+v", got, want)
	}
	if blob == nil {
		t.Fatalf("no checkpoint emitted at slot %d of %d", snapSlot, slots)
	}

	// Resume leg: a fresh runner restored from the blob must replay the
	// rest of the run delivery-for-delivery and end with identical
	// statistics.
	resumed, _ := buildRunner(t, algo, n, seed, 0)
	var gotDel []cell.Delivery
	resumed.OnDelivery(func(d cell.Delivery) { gotDel = append(gotDel, d) })
	if err := resumed.Restore(algo, blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got = resumed.Run(algo)
	if got != want {
		t.Errorf("resumed Results differ:\n got %+v\nwant %+v", got, want)
	}
	if len(gotDel) != len(wantDel) {
		t.Fatalf("resumed run made %d deliveries after slot %d, straight run %d",
			len(gotDel), snapSlot, len(wantDel))
	}
	for i := range gotDel {
		if gotDel[i] != wantDel[i] {
			t.Fatalf("delivery %d differs: resumed %+v, straight %+v", i, gotDel[i], wantDel[i])
		}
	}

	// Checked resume leg: the restored switch wrapped in the invariant
	// checker must hold all 8 invariants to the end of the run, and the
	// checker must not perturb the simulation.
	every := int64(1)
	if n >= 16 {
		every = int64(n) // deep O(n²) cross-checks at a coarser cadence
	}
	checked, ck := buildRunner(t, algo, n, seed, every)
	if err := checked.Restore(algo, blob); err != nil {
		t.Fatalf("checked Restore: %v", err)
	}
	got = checked.Run(algo)
	if got != want {
		t.Errorf("checked resumed Results differ:\n got %+v\nwant %+v", got, want)
	}
	if err := ck.Err(); err != nil {
		t.Errorf("invariants violated after restore (%s): %v", ck.Profile(), err)
	}
}
