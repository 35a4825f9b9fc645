package fabric_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The parallel-engine contract (DESIGN.md §16): the delivery stream,
// the final Results table, and every mid-run snapshot blob are
// byte-identical to the sequential engine for any worker count and any
// GOMAXPROCS. These tests pin that contract; the
// CI fabric and parallel jobs run them under the race detector, which
// also proves the pool itself race-free.

// fabricRun is everything observable about one facade-shaped fabric
// run: the full delivery stream, the final table, the fabric counters,
// and the periodic checkpoint blobs.
type fabricRun struct {
	stream []cell.Delivery
	res    switchsim.Results
	stats  *fabric.Stats
	blobs  [][]byte
}

// runFabricPoint mirrors the facade's fabric construction (algorithm
// wrapped by experiment.WithTopology, fabric on Split("switch",0),
// traffic on Split("traffic",0)) and drives a full run, checkpointing
// every ckptEvery slots. The fabric's worker pool, if any, is closed
// before returning.
func runFabricPoint(tb testing.TB, algo, spec string, fcfg fabric.Config, seed uint64, slots, ckptEvery int64) fabricRun {
	tb.Helper()
	alg, err := experiment.ByName(algo)
	if err != nil {
		tb.Fatal(err)
	}
	top := mustTop(tb, spec)
	alg, err = experiment.WithTopology(alg, top, fcfg)
	if err != nil {
		tb.Fatal(err)
	}
	root := xrand.New(seed)
	sw := alg.New(top.Ingress(), root.Split("switch", 0))
	pat := traffic.Bernoulli{P: 0.3, B: 0.12}
	cfg := switchsim.Config{Slots: slots, Seed: seed, WarmupFrac: 0.25}
	r := switchsim.New(sw, pat, cfg, root.Split("traffic", 0))
	defer sw.(*fabric.Fabric).Close()

	var run fabricRun
	r.OnDelivery(func(d cell.Delivery) { run.stream = append(run.stream, d) })
	run.res, err = r.RunWithCheckpoints(alg.Name, ckptEvery, func(nextSlot int64, b []byte) error {
		run.blobs = append(run.blobs, append([]byte(nil), b...))
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	run.stats = sw.(*fabric.Fabric).FabricStats()
	return run
}

// sameRun compares two runs for byte identity on every surface.
func sameRun(t *testing.T, label string, got, want fabricRun) {
	t.Helper()
	if len(got.stream) != len(want.stream) {
		t.Fatalf("%s: %d deliveries, sequential made %d", label, len(got.stream), len(want.stream))
	}
	for i := range got.stream {
		if got.stream[i] != want.stream[i] {
			t.Fatalf("%s: delivery %d = %+v, sequential %+v", label, i, got.stream[i], want.stream[i])
		}
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: Results diverged:\n got %+v\nwant %+v", label, got.res, want.res)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: fabric stats diverged:\n got %+v\nwant %+v", label, got.stats, want.stats)
	}
	if len(got.blobs) != len(want.blobs) {
		t.Fatalf("%s: %d checkpoints, sequential made %d", label, len(got.blobs), len(want.blobs))
	}
	for i := range got.blobs {
		if !bytes.Equal(got.blobs[i], want.blobs[i]) {
			t.Fatalf("%s: checkpoint %d differs from the sequential blob (%d vs %d bytes)",
				label, i, len(got.blobs[i]), len(want.blobs[i]))
		}
	}
}

// TestParallelFabricIdentity is the full determinism battery: for a
// fat-tree and a Clos, every (workers, GOMAXPROCS) combination
// must reproduce the sequential run exactly — delivery stream, final
// table, fabric counters, and mid-run snapshot blobs.
func TestParallelFabricIdentity(t *testing.T) {
	const (
		slots = 600
		seed  = 19
	)
	specs := []string{"fattree:k=4", "clos:n=4,m=4,r=4"}
	workerCounts := []int{2, 4}
	maxprocs := []int{1, 2, 4}
	if testing.Short() {
		specs = specs[:1]
		maxprocs = []int{2}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			runtime.GOMAXPROCS(prev)
			want := runFabricPoint(t, "fifoms", spec, fabric.Config{}, seed, slots, slots/3)
			if len(want.stream) == 0 || len(want.blobs) == 0 {
				t.Fatal("sequential reference run produced no deliveries or checkpoints")
			}
			for _, g := range maxprocs {
				runtime.GOMAXPROCS(g)
				for _, w := range workerCounts {
					label := fmt.Sprintf("gomaxprocs=%d/workers=%d", g, w)
					got := runFabricPoint(t, "fifoms", spec, fabric.Config{Workers: w}, seed, slots, slots/3)
					sameRun(t, label, got, want)
				}
			}
		})
	}
}

// TestParallelFabricResume pins resume-equals-straight-run with the
// worker pool on both sides of the checkpoint: a parallel run
// checkpointed mid-flight and resumed into a fresh parallel fabric
// must replay the remainder delivery-for-delivery.
func TestParallelFabricResume(t *testing.T) {
	const (
		slots    = 500
		snapSlot = 200
		seed     = 31
	)
	fcfg := fabric.Config{Workers: 4}

	straight := runFabricPoint(t, "fifoms", "fattree:k=4", fcfg, seed, slots, snapSlot)
	if len(straight.blobs) == 0 {
		t.Fatal("no checkpoint emitted")
	}
	var wantTail []cell.Delivery
	for _, d := range straight.stream {
		if d.Slot >= snapSlot {
			wantTail = append(wantTail, d)
		}
	}

	alg, err := experiment.ByName("fifoms")
	if err != nil {
		t.Fatal(err)
	}
	top := mustTop(t, "fattree:k=4")
	alg, err = experiment.WithTopology(alg, top, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(seed)
	sw := alg.New(top.Ingress(), root.Split("switch", 0))
	defer sw.(*fabric.Fabric).Close()
	r := switchsim.New(sw, traffic.Bernoulli{P: 0.3, B: 0.12},
		switchsim.Config{Slots: slots, Seed: seed, WarmupFrac: 0.25}, root.Split("traffic", 0))
	var gotTail []cell.Delivery
	r.OnDelivery(func(d cell.Delivery) { gotTail = append(gotTail, d) })
	if err := r.Restore(alg.Name, straight.blobs[0]); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := r.Run(alg.Name)
	if !reflect.DeepEqual(got, straight.res) {
		t.Fatalf("resumed Results differ:\n got %+v\nwant %+v", got, straight.res)
	}
	if len(gotTail) != len(wantTail) {
		t.Fatalf("resumed run made %d deliveries after slot %d, straight run %d",
			len(gotTail), snapSlot, len(wantTail))
	}
	for i := range gotTail {
		if gotTail[i] != wantTail[i] {
			t.Fatalf("delivery %d differs: resumed %+v, straight %+v", i, gotTail[i], wantTail[i])
		}
	}
}

// TestParallelFabricClose pins the pool lifecycle: Close is a no-op on
// a sequential fabric, idempotent on a parallel one, and a closed
// fabric has actually stopped its workers (a second Close cannot
// deadlock on closed wake channels).
func TestParallelFabricClose(t *testing.T) {
	top := mustTop(t, "fattree:k=4")
	seq := newFabric(t, top, "fifoms", fabric.Config{}, 3)
	if err := seq.Close(); err != nil {
		t.Fatalf("Close on sequential fabric: %v", err)
	}
	par := newFabric(t, top, "fifoms", fabric.Config{Workers: 4}, 3)
	for slot := int64(0); slot < 10; slot++ {
		par.Step(slot, nil)
	}
	if err := par.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := par.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// BenchmarkFabricSlotParallel measures the per-slot cost of the
// parallel engine at 1/2/4 workers on the same deterministic fat-tree
// load as BenchmarkFabricSlot; workers=1 is the sequential engine, so
// the sub-benchmarks pair directly for benchcmp -scaling and
// BENCH_parallel.json.
func BenchmarkFabricSlotParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := newFabricStepperCfg(b, "fifoms", fabric.Config{Workers: w})
			defer s.f.Close()
			for i := 0; i < 500; i++ {
				s.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
		})
	}
}
