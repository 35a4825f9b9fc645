package switchsim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/roster"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// Fabric-scope checkpointing: the same golden-blob pinning and
// resume-equals-straight-run discipline as the single-switch grid, but
// the snapshot now spans the whole fabric — live-packet window, copy
// contexts, link buffers and every node's own state.

const (
	fabricGoldenAlgo = "fifoms"
	fabricGoldenSpec = "fattree:k=4"
	fabricGoldenSeed = 7
	fabricGoldenSlot = 300
)

var fabricGoldenPath = filepath.Join("testdata", "fabric_4ary.snap")

func fabricPattern() traffic.Pattern {
	// Light multicast load: stable on every fabric in the grid, with
	// copies in flight across all stages at any snapshot slot.
	return traffic.Bernoulli{P: 0.3, B: 0.12}
}

// buildFabricRunner mirrors the facade's fabric construction exactly
// (voqsim.buildRunner with Config.Topology set): the algorithm wrapped
// by experiment.WithTopology, the fabric on Split("switch",0), the
// traffic on Split("traffic",0).
func buildFabricRunner(tb testing.TB, algo, spec string, seed uint64, slots, checkEvery int64) (*switchsim.Runner, *check.Checker, string) {
	tb.Helper()
	alg, err := experiment.ByName(algo)
	if err != nil {
		tb.Fatal(err)
	}
	top, err := fabric.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	alg, err = experiment.WithTopology(alg, top, fabric.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	root := xrand.New(seed)
	sw := alg.New(top.Ingress(), root.Split("switch", 0))
	cfg := switchsim.Config{Slots: slots, Seed: seed, WarmupFrac: 0.25}
	if checkEvery > 0 {
		r, ck := switchsim.NewChecked(sw, fabricPattern(), cfg, root.Split("traffic", 0),
			check.Options{Every: checkEvery})
		return r, ck, alg.Name
	}
	return switchsim.New(sw, fabricPattern(), cfg, root.Split("traffic", 0)), nil, alg.Name
}

// sameResults compares Results across fabric runs; reflect.DeepEqual
// follows the Fabric stats pointer, which value comparison would not.
func sameResults(a, b switchsim.Results) bool { return reflect.DeepEqual(a, b) }

// TestFabricSnapshotGolden pins the fabric checkpoint encoding: a
// 4-ary fat-tree FIFOMS run snapshotted mid-flight must produce the
// exact blob in testdata/, and that blob must restore and resume to
// the uninterrupted run's Results.
func TestFabricSnapshotGolden(t *testing.T) {
	const slots = 600
	r, _, name := buildFabricRunner(t, fabricGoldenAlgo, fabricGoldenSpec, fabricGoldenSeed, slots, 0)
	var blob []byte
	if _, err := r.RunWithCheckpoints(name, fabricGoldenSlot, func(nextSlot int64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("fabric golden run emitted no checkpoint")
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(fabricGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fabricGoldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fabricGoldenPath)
	if err != nil {
		t.Fatalf("reading fabric golden blob (run with -update-golden to create it): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("fabric snapshot encoding changed: got %d bytes, golden has %d.\n"+
			"If the format changed intentionally, bump snap.Version and run with -update-golden.",
			len(blob), len(want))
	}

	m, err := snap.ReadMeta(want)
	if err != nil {
		t.Fatalf("fabric golden blob meta: %v", err)
	}
	if m.Algorithm != name || m.NextSlot != fabricGoldenSlot {
		t.Fatalf("fabric golden blob meta %+v does not match the pinned run", m)
	}

	straight, _, _ := buildFabricRunner(t, fabricGoldenAlgo, fabricGoldenSpec, fabricGoldenSeed, slots, 0)
	wantRes := straight.Run(name)
	resumed, _, _ := buildFabricRunner(t, fabricGoldenAlgo, fabricGoldenSpec, fabricGoldenSeed, slots, 0)
	if err := resumed.Restore(name, want); err != nil {
		t.Fatalf("resuming fabric golden blob: %v", err)
	}
	gotRes := resumed.Run(name)
	if !sameResults(gotRes, wantRes) {
		t.Fatalf("fabric golden blob resume diverged:\n got %+v\nwant %+v", gotRes, wantRes)
	}
}

// TestFabricResumeEqualsStraightRun is the resume differential at
// fabric scope: for each roster architecture (internal/roster) as the
// node of every switch, topology and seed, a run checkpointed
// mid-flight and resumed in a fresh runner must replay the remainder
// delivery-for-delivery and end with identical statistics, and a
// checked resume must hold every invariant; for TATRA and OQFIFO nodes
// the checked resume primes the F1 pass through their buffer walks.
func TestFabricResumeEqualsStraightRun(t *testing.T) {
	const slots = 500
	specs := []string{"fattree:k=4", "clos:n=4,m=4,r=4"}
	seeds := []uint64{1, 42}
	if testing.Short() {
		specs = specs[:1]
		seeds = seeds[:1]
	}
	for _, algo := range roster.Names(roster.FabricResume) {
		for _, spec := range specs {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", algo, spec, seed), func(t *testing.T) {
					t.Parallel()
					testFabricResumePoint(t, algo, spec, seed, slots)
				})
			}
		}
	}
}

func testFabricResumePoint(t *testing.T, algo, spec string, seed uint64, slots int64) {
	snapSlot := snapSlotFor(algo+"@"+spec, 16, seed, slots)

	straight, _, name := buildFabricRunner(t, algo, spec, seed, slots, 0)
	var wantDel []cell.Delivery
	straight.OnDelivery(func(d cell.Delivery) {
		if d.Slot >= snapSlot {
			wantDel = append(wantDel, d)
		}
	})
	want := straight.Run(name)

	ckpt, _, _ := buildFabricRunner(t, algo, spec, seed, slots, 0)
	var blob []byte
	got, err := ckpt.RunWithCheckpoints(name, snapSlot, func(nextSlot int64, b []byte) error {
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
	if !sameResults(got, want) {
		t.Errorf("checkpointing changed the run:\n got %+v\nwant %+v", got, want)
	}
	if blob == nil {
		t.Fatalf("no checkpoint emitted at slot %d of %d", snapSlot, slots)
	}

	resumed, _, _ := buildFabricRunner(t, algo, spec, seed, slots, 0)
	var gotDel []cell.Delivery
	resumed.OnDelivery(func(d cell.Delivery) { gotDel = append(gotDel, d) })
	if err := resumed.Restore(name, blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got = resumed.Run(name)
	if !sameResults(got, want) {
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

	checked, ck, _ := buildFabricRunner(t, algo, spec, seed, slots, 8)
	if err := checked.Restore(name, blob); err != nil {
		t.Fatalf("checked Restore: %v", err)
	}
	got = checked.Run(name)
	if !sameResults(got, want) {
		t.Errorf("checked resumed Results differ:\n got %+v\nwant %+v", got, want)
	}
	if err := ck.Err(); err != nil {
		t.Errorf("invariants violated after fabric restore (%s): %v", ck.Profile(), err)
	}
}
