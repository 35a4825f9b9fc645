package switchsim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"voqsim/internal/cell"
	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The draw-ahead contract (DESIGN.md §17): who polls the traffic
// sources — the caller inline, or a producer goroutine a batch ahead —
// changes no output. Results, the full delivery stream, every
// checkpoint blob and a resume from one are identical to the inline
// run for every traffic family, port count and GOMAXPROCS, on a single
// switch and on a fabric, sequential or parallel. CI's parallel job
// runs this under the race detector, which also proves that batches and
// sources are handed over, never shared.

// aheadPoint is one cell of the battery.
type aheadPoint struct {
	traffic  string
	pat      traffic.Pattern
	fast     bool
	topology string // empty: a single fifoms switch
	workers  int    // fabric workers (Config.Parallel)
	n        int
	slots    int64
	every    int64 // checkpoint interval; 0 under Fast, which has no snapshots
}

func (p aheadPoint) String() string {
	kind := "fifoms"
	if p.topology != "" {
		kind = fmt.Sprintf("%s/workers=%d", p.topology, p.workers)
	}
	return fmt.Sprintf("%s/%s/n=%d", p.traffic, kind, p.n)
}

// aheadRun is everything observable about one run.
type aheadRun struct {
	res    switchsim.Results
	stream uint64 // hash of every delivery
	tail   uint64 // hash of the deliveries from slot tailFrom on
	blobs  [][]byte
}

// run builds the point the way the facade does (the module's run
// builder, single-run seeding) and drives it to the end, restoring
// resume first when it is non-nil.
func (p aheadPoint) run(tb testing.TB, ahead bool, tailFrom int64, resume []byte) aheadRun {
	tb.Helper()
	const seed = 29
	alg, _, err := experiment.Resolve("fifoms", p.topology, p.n, p.workers)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := switchsim.Config{Slots: p.slots, Seed: seed, WarmupFrac: 0.25, Fast: p.fast, DrawAhead: ahead}
	r, _, release := experiment.RunSeeding.NewRunner(alg, p.n, p.pat, cfg, false)
	defer release()
	if resume != nil {
		if err := r.Restore(alg.Name, resume); err != nil {
			tb.Fatalf("%v: Restore: %v", p, err)
		}
	}

	var run aheadRun
	r.OnDelivery(func(d cell.Delivery) {
		run.stream = mixDelivery(run.stream, d)
		if d.Slot >= tailFrom {
			run.tail = mixDelivery(run.tail, d)
		}
	})
	run.res, err = r.RunWithCheckpoints(alg.Name, p.every, func(_ int64, b []byte) error {
		run.blobs = append(run.blobs, bytes.Clone(b))
		return nil
	})
	if err != nil {
		tb.Fatalf("%v: %v", p, err)
	}
	return run
}

// mixDelivery folds one delivery into an order-sensitive stream hash:
// FNV-1a's step over the record's words rather than its bytes (the
// battery hashes a few million deliveries under the race detector).
func mixDelivery(h uint64, d cell.Delivery) uint64 {
	last := uint64(0)
	if d.Last {
		last = 1
	}
	for _, v := range [...]uint64{uint64(d.ID), uint64(d.In), uint64(d.Out), uint64(d.Slot), uint64(d.Arrival), last} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// aheadGrid lists the battery's points. Every pattern offers about 0.6
// per output. A batch is work-sized (1024 slots at most, some 540 of
// N=64 multicast, 45 of N=130 unicast), so no checkpoint interval
// divides it: every segment ends in a batch the fence cut short, and on
// the single switches at N >= 16 it starts with whole ones. The fabric
// runs are the dearest under the race detector and stay within a batch
// per segment.
func aheadGrid(tb testing.TB) []aheadPoint {
	type size struct {
		topology     string
		workers, n   int
		slots, every int64
	}
	sizes := []size{
		{"", 0, 4, 2600, 1100},
		{"", 0, 16, 2600, 1100},
		{"", 0, 64, 900, 400},
		{"", 0, 130, 300, 130},
		{"fattree:k=4", 0, 16, 1400, 600},
		{"fattree:k=4", 2, 16, 1400, 600},
	}
	if testing.Short() {
		sizes = []size{sizes[1], sizes[3], sizes[5]}
	}
	var grid []aheadPoint
	for _, s := range sizes {
		n := float64(s.n)
		burst, err := traffic.BurstAtLoad(0.6, 2/n, 8, s.n)
		if err != nil {
			tb.Fatal(err)
		}
		multicast := traffic.Uniform{P: 0.24, MaxFanout: 4}
		recorded := traffic.Record(multicast, s.n, s.slots, xrand.New(3))
		for _, t := range []struct {
			name string
			pat  traffic.Pattern
			fast bool
		}{
			{"bernoulli", traffic.Bernoulli{P: 0.3, B: 2 / n}, false},
			{"uniform-f1", traffic.Uniform{P: 0.6, MaxFanout: 1}, false},
			{"uniform-f4", multicast, false},
			{"burst", burst, false},
			{"mixed", traffic.Mixed{P: 0.3, MulticastFrac: 0.5, MaxFanout: 4}, false},
			{"hotspot", traffic.Hotspot{P: 0.3, BHot: 2 / n, BCold: 1 / n, HotOut: 1}, false},
			{"diagonal", traffic.Diagonal{P: 0.6}, false},
			{"trace", recorded.Pattern(), false},
			{"uniform-f4-fast", multicast, true},
		} {
			p := aheadPoint{
				traffic: t.name, pat: t.pat, fast: t.fast,
				topology: s.topology, workers: s.workers, n: s.n,
				slots: s.slots, every: s.every,
			}
			if t.fast {
				p.every = 0
			}
			grid = append(grid, p)
		}
	}
	return grid
}

func TestDrawAheadIdentity(t *testing.T) {
	maxprocs := []int{1, 2, 4}
	if testing.Short() {
		maxprocs = []int{2}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for i, p := range aheadGrid(t) {
		// The inline run has no second goroutine, so one reference serves
		// every GOMAXPROCS. The resume leg restarts from the first blob,
		// under one GOMAXPROCS per point, taken in rotation.
		want := p.run(t, false, p.every, nil)
		if p.every > 0 && len(want.blobs) < 2 {
			t.Fatalf("%v: %d checkpoints in %d slots, want at least 2", p, len(want.blobs), p.slots)
		}
		for j, procs := range maxprocs {
			runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("%v/GOMAXPROCS=%d", p, procs)

			got := p.run(t, true, p.every, nil)
			if !reflect.DeepEqual(got.res, want.res) {
				t.Fatalf("%s: Results diverged:\n got %+v\nwant %+v", label, got.res, want.res)
			}
			if got.stream != want.stream {
				t.Fatalf("%s: delivery stream hash %#x, inline %#x", label, got.stream, want.stream)
			}
			if len(got.blobs) != len(want.blobs) {
				t.Fatalf("%s: %d checkpoints, inline made %d", label, len(got.blobs), len(want.blobs))
			}
			for i := range got.blobs {
				if !bytes.Equal(got.blobs[i], want.blobs[i]) {
					t.Fatalf("%s: checkpoint %d differs from the inline blob (%d vs %d bytes)",
						label, i, len(got.blobs[i]), len(want.blobs[i]))
				}
			}
			if p.every == 0 || j != i%len(maxprocs) {
				continue
			}

			resumed := p.run(t, true, p.every, got.blobs[0])
			if !reflect.DeepEqual(resumed.res, want.res) {
				t.Fatalf("%s: resumed Results diverged:\n got %+v\nwant %+v", label, resumed.res, want.res)
			}
			if resumed.stream != want.tail {
				t.Fatalf("%s: resumed delivery stream hash %#x, straight run's tail %#x",
					label, resumed.stream, want.tail)
			}
			if !reflect.DeepEqual(resumed.blobs, want.blobs[1:]) {
				t.Fatalf("%s: checkpoints after the resume differ from the straight run's", label)
			}
		}
	}
}

// TestDrawAheadCheckedObserved pins the composition the voqsim CLI runs
// when every attachment is on: the checker around the switch, the
// tracer and the metrics registry reaching it through the checker, a
// series recorder, and the traffic drawn ahead on a second goroutine.
// Everything observable equals the plain sequential run's — Results,
// delivery stream, event trace, metrics, series — and the checker finds
// nothing. CI's parallel job races it with the rest of the battery.
func TestDrawAheadCheckedObserved(t *testing.T) {
	type observed struct {
		res     switchsim.Results
		stream  uint64
		events  []obs.Event
		metrics []obs.Metric
		series  string
	}
	for _, tc := range []struct{ algo, topology string }{
		{"fifoms", ""}, {"eslip", ""}, {"fifoms", "fattree:k=4"},
	} {
		const n, seed = 16, 31
		alg, _, err := experiment.Resolve(tc.algo, tc.topology, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(alg.Name, func(t *testing.T) {
			run := func(composed bool) observed {
				cfg := switchsim.Config{Slots: 1500, Seed: seed, WarmupFrac: 0.25, DrawAhead: composed}
				r, ck, release := experiment.RunSeeding.NewRunner(alg, n,
					traffic.Uniform{P: 0.24, MaxFanout: 4}, cfg, composed)
				defer release()

				var got observed
				tr := obs.NewTracer(512) // small ring: streams mid-run
				tr.OnFull(func(batch []obs.Event) error {
					got.events = append(got.events, batch...)
					return nil
				})
				o := &obs.Observer{Trace: tr, Metrics: obs.NewRegistry()}
				r.Instrument(o)
				rec := switchsim.NewSeriesRecorder(1)
				r.Observe(rec)
				r.OnDelivery(func(d cell.Delivery) { got.stream = mixDelivery(got.stream, d) })

				got.res = r.Run(alg.Name)
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				if composed && (ck.Err() != nil || ck.Slots() != got.res.Slots) {
					t.Fatalf("checker: %v after %d of %d slots", ck.Err(), ck.Slots(), got.res.Slots)
				}
				got.metrics = o.Metrics.Snapshot()
				var csv bytes.Buffer
				if err := rec.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				got.series = csv.String()
				return got
			}
			want, got := run(false), run(true)
			if want.res.Delivered == 0 || len(want.events) == 0 {
				t.Fatalf("empty reference run: %+v, %d events", want.res, len(want.events))
			}
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("Results diverged:\n got %+v\nwant %+v", got.res, want.res)
			}
			if got.stream != want.stream {
				t.Errorf("delivery stream hash %#x, plain run %#x", got.stream, want.stream)
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Errorf("trace through the checker differs: %d events, plain run %d", len(got.events), len(want.events))
			}
			if !reflect.DeepEqual(got.metrics, want.metrics) {
				t.Errorf("metrics differ:\n got %v\nwant %v", got.metrics, want.metrics)
			}
			if got.series != want.series {
				t.Error("series CSV differs")
			}
		})
	}
}

// TestDrawAheadJoinsProducer pins the producer's lifetime: it has
// exited when Run returns, whether the run completed or tripped the
// instability ceiling with slots still to draw.
func TestDrawAheadJoinsProducer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        float64
		unstable bool
	}{
		{"completed", 0.24, false},
		{"unstable", 1, true}, // 2.5 copies offered per output per slot
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := aheadPoint{
				traffic: tc.name, pat: traffic.Uniform{P: tc.p, MaxFanout: 4},
				n: 16, slots: 20_000,
			}
			want := p.run(t, false, 0, nil)
			if want.res.Unstable != tc.unstable {
				t.Fatalf("inline run: Unstable = %v, want %v", want.res.Unstable, tc.unstable)
			}
			before := runtime.NumGoroutine()
			got := p.run(t, true, 0, nil)
			if !reflect.DeepEqual(got.res, want.res) || got.stream != want.stream {
				t.Fatalf("draw-ahead run diverged:\n got %+v\nwant %+v", got.res, want.res)
			}
			// The producer signals just before it returns; give the
			// scheduler a moment to retire it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("%d goroutines after the run, %d before", now, before)
			}
		})
	}
}

// TestCheckpointIntervalNeedsSink: an interval without a sink is
// refused before anything is simulated, not at the first boundary.
func TestCheckpointIntervalNeedsSink(t *testing.T) {
	r, _ := buildRunner(t, "fifoms", 4, 1, 0)
	r.OnDelivery(func(cell.Delivery) { t.Fatal("simulated a slot") })
	if _, err := r.RunWithCheckpoints("fifoms", 10, nil); err == nil {
		t.Fatal("RunWithCheckpoints(every=10, nil sink) returned no error")
	}
}
