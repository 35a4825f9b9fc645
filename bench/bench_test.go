package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"voqsim"
	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func simSpec(name string, in workloadInputs) workloadSpec {
	kind := kindSwitch
	if in.Topology != "" {
		kind = kindFabric
	}
	return workloadSpec{Name: name, Kind: kind, Seed: 7, MinReps: 1, Inputs: in}
}

// The traced driver's licence: it reproduces switchsim.Runner's report
// to the last bit, for every traffic shape the workloads use.
func TestTracedDriverMatchesRunner(t *testing.T) {
	patterns := map[string]workloadInputs{
		"uniform": {Traffic: &trafficSpec{Kind: "uniform", Load: 0.8, MaxFanout: 4}},
		"unicast": {Traffic: &trafficSpec{Kind: "uniform", Load: 0.9, MaxFanout: 1}},
		"burst":   {Traffic: &trafficSpec{Kind: "burst", Load: 0.6, B: 0.25, EOn: 16}},
		"fast":    {Traffic: &trafficSpec{Kind: "uniform", Load: 0.8, MaxFanout: 4}, Fast: true},
	}
	for name, in := range patterns {
		for _, n := range []int{8, 64} {
			in.Ports, in.Slots = n, 3000
			w := simSpec(name, in)
			for _, seed := range []uint64{7, 11} {
				cfg, err := w.simConfig(seed, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := voqsim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, tot, err := tracedSim(w, seed, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if reportDigest(got) != reportDigest(want) {
					t.Errorf("%s N=%d seed %d: traced report differs\n got %+v\nwant %+v", name, n, seed, got, want)
				}
				if tot.slots != want.Slots || tot.matchCalls == 0 || tot.stepNs < tot.matchNs {
					t.Errorf("%s N=%d: implausible accumulators %+v", name, n, tot)
				}
				// An attached observer (the counting repetition) must not
				// change the run either.
				o := &obs.Observer{Metrics: obs.NewRegistry()}
				counted, _, err := tracedSim(w, seed, 0, o)
				if err != nil {
					t.Fatal(err)
				}
				if reportDigest(counted) != reportDigest(want) {
					t.Errorf("%s N=%d seed %d: counting repetition's report differs", name, n, seed)
				}
				if o.Metrics.Counter(obs.MetricDepartures).Value() == 0 {
					t.Errorf("%s N=%d: observer counted no departures", name, n)
				}
			}
		}
	}
}

// Wrapped fabric nodes, stepped sequentially or by two workers, give
// the report of the unwrapped sequential fabric.
func TestTracedFabricMatchesRunner(t *testing.T) {
	w := simSpec("fab", workloadInputs{
		Topology: "fattree:k=4", Traffic: &trafficSpec{Kind: "uniform", Load: 0.8, MaxFanout: 4}, Slots: 1500,
	})
	cfg, err := w.simConfig(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := voqsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		got, tot, err := tracedSim(w, 7, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reportDigest(got) != reportDigest(want) {
			t.Errorf("workers=%d: traced fabric report differs\n got %+v\nwant %+v", workers, got, want)
		}
		if tot.nodeStepNs <= 0 || tot.nodeArriveNs <= 0 || !tot.pendingKnown {
			t.Errorf("workers=%d: node wrappers recorded nothing: %+v", workers, tot)
		}
		f := got.Fabric
		if f.AdmittedCopies != f.DeliveredCopies+f.DroppedCopies+tot.pending {
			t.Errorf("workers=%d: admitted %d != delivered %d + dropped %d + buffered %d",
				workers, f.AdmittedCopies, f.DeliveredCopies, f.DroppedCopies, tot.pending)
		}
	}
}

// The wrappers embed the concrete types, so every optional capability
// the fabric and the engine probe for is still there.
var (
	_ interface {
		SetReleaseHook(func(*cell.Packet))
		InputBacklog(int) int
		SetObserver(*obs.Observer)
		ForEachBuffered(func(in, out int, p *cell.Packet))
		SaveState(*snap.Writer)
		LoadState(*snap.Reader) error
		LastRounds() int
		BufferedBytes() int64
	} = (*timedNode)(nil)
	_ core.Arbiter = (*timedFIFOMS)(nil)
)

func TestTimedArbiterForwards(t *testing.T) {
	inner := &core.FIFOMS{MaxRounds: 3}
	a := &timedFIFOMS{FIFOMS: inner}
	if a.Name() != inner.Name() || a.Mode() != inner.Mode() {
		t.Fatalf("decorator reports %s/%v, arbiter %s/%v", a.Name(), a.Mode(), inner.Name(), inner.Mode())
	}
	sw := core.NewSwitch(4, a, xrand.New(1))
	sw.Arrive(&cell.Packet{ID: 1, Input: 0, Arrival: 0, Dests: destset.FromMembers(4, 1, 2)})
	sw.Step(0, func(cell.Delivery) {})
	if a.calls != 1 || a.ns <= 0 || a.last < a.lastStart {
		t.Fatalf("Match was not timed: %+v", a)
	}
}

// The release hook reaches the switch through the traced driver, so
// its steady-state slot loop allocates nothing: the allocations of a
// long run exceed a short one's only by the sampled slots' spans.
func TestTracedDriverAllocations(t *testing.T) {
	mallocs := func(slots int64) uint64 {
		w := simSpec("alloc", workloadInputs{Ports: 16, Slots: slots, Traffic: &trafficSpec{Kind: "uniform", Load: 0.9, MaxFanout: 4}})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := tracedSim(w, 7, 0, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(4096), mallocs(4096+16384)
	if perSlot := (float64(long) - float64(short)) / 16384; perSlot > 0.05 {
		t.Errorf("traced driver allocates %.3f objects per slot in steady state (short run %d, long run %d)", perSlot, short, long)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) of Python 3, default method.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 99: 10, 100: 10, 1: 1, 25: 3} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if relDiff(100, 110) != 0.1 || relDiff(0, 0) != 0 || !math.IsInf(relDiff(0, 1), 1) {
		t.Error("relDiff is off")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json names exactly the workloads and metrics the binary
// knows and prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bf.Command, " "); got != "go run ./bench" {
		t.Errorf("command is %q", got)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths are %v", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, err := loadWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("workloads %v, the binary runs %v", names, workloadOrder)
	}

	var wantE2E, wantLayer, gotE2E, gotLayer []string
	largest := 0.0
	for _, def := range catalogue {
		if def.Class == classDriver {
			wantE2E = append(wantE2E, def.Name+"|"+def.Unit+"|"+def.Better+"|"+jsonNumber(def.Bound))
			largest = math.Max(largest, def.Bound)
		} else {
			wantLayer = append(wantLayer, def.Name+"|"+def.Unit+"|"+def.Better)
		}
	}
	for _, m := range bf.EndToEnd {
		gotE2E = append(gotE2E, m.Name+"|"+m.Unit+"|"+m.Better+"|"+jsonNumber(m.Bound))
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		gotLayer = append(gotLayer, m.Name+"|"+m.Unit+"|"+m.Better)
	}
	if strings.Join(gotE2E, "\n") != strings.Join(wantE2E, "\n") {
		t.Errorf("end_to_end:\n%s\ncatalogue:\n%s", strings.Join(gotE2E, "\n"), strings.Join(wantE2E, "\n"))
	}
	if strings.Join(gotLayer, "\n") != strings.Join(wantLayer, "\n") {
		t.Errorf("per_layer:\n%s\ncatalogue:\n%s", strings.Join(gotLayer, "\n"), strings.Join(wantLayer, "\n"))
	}
	if def, _ := metricByName("setup_s"); def.Bound != largest || def.Better != "lower" || def.Unit != "s" {
		t.Errorf("setup_s must be in s, lower-is-better, with the largest bound; it is %+v", def)
	}

	// What a run prints on its last line is exactly one of the two lists.
	for _, traced := range []bool{false, true} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		res := &result{Traced: traced, Metrics: metricSet{}, Attempted: 3}
		if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		var printed, want []string
		for name, v := range line.Metrics {
			printed = append(printed, name+"|"+v.Unit)
		}
		if traced {
			for _, m := range bf.PerLayer {
				want = append(want, m.Name+"|"+m.Unit)
			}
		} else {
			for _, m := range bf.EndToEnd {
				want = append(want, m.Name+"|"+m.Unit)
			}
		}
		sort.Strings(printed)
		sort.Strings(want)
		if strings.Join(printed, ",") != strings.Join(want, ",") {
			t.Errorf("traced=%t prints %v, BENCHMARK.json lists %v", traced, printed, want)
		}
		if !line.Correct || line.Attempted != 3 || line.Failed != 0 {
			t.Errorf("traced=%t: contract line %+v", traced, line)
		}
	}
}

// README.md keeps to relative links that resolve, the convention
// TestDocLinks holds the root documents to.
func TestReadmeLinks(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	links := regexp.MustCompile(`\]\(([^)\s]+)\)`).FindAllStringSubmatch(string(body), -1)
	if len(links) == 0 {
		t.Fatal("README.md has no links")
	}
	for _, m := range links {
		target, _, _ := strings.Cut(m[1], "#")
		if strings.Contains(target, "://") || strings.HasPrefix(target, "/") {
			t.Errorf("README.md: %q is not a relative link", m[1])
			continue
		}
		if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
			t.Errorf("README.md: broken link %q", m[1])
		}
	}
}

func jsonNumber(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestWorkloadFiles(t *testing.T) {
	for _, name := range workloadOrder {
		w, err := loadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Why == "" || !strings.HasPrefix(w.Digest, "fnv1a:") || w.DigestOf == "" || w.Seed == 0 {
			t.Errorf("%s: incomplete pin %+v", name, w)
		}
		switch w.Kind {
		case kindSwitch, kindFabric:
			if _, err := w.simConfig(w.Seed, 0); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case kindSweep:
			if _, err := w.sweeps(w.Seed, 1); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case kindVoqd:
			if _, err := newFrameGen(w, w.Seed); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		default:
			t.Errorf("%s: unknown kind %q", name, w.Kind)
		}
	}
	if _, err := loadWorkload("no-such-workload"); err == nil {
		t.Error("an unknown workload loaded")
	}
}

// checkReport falls back to invariants away from the pinned seed.
func TestCheckReportInvariants(t *testing.T) {
	w := simSpec("x", workloadInputs{})
	w.Digest = "fnv1a:0"
	good := voqsim.Report{Load: 0.9, Throughput: 0.895}
	if err := w.checkReport(good, 8); err != nil {
		t.Errorf("a report within 1%% of its load failed: %v", err)
	}
	if err := w.checkReport(good, w.Seed); err == nil {
		t.Error("a digest mismatch at the pinned seed passed")
	}
	for name, bad := range map[string]voqsim.Report{
		"unstable":   {Load: 0.9, Throughput: 0.9, Unstable: true},
		"throughput": {Load: 0.9, Throughput: 0.8},
		"fabric": {Load: 0.9, Throughput: 0.9,
			Fabric: &voqsim.FabricReport{AdmittedCopies: 100, DeliveredCopies: 90, DroppedCopies: 20}},
	} {
		if err := w.checkReport(bad, 8); err == nil {
			t.Errorf("%s: a broken report passed", name)
		}
	}
}

func voqdSpec(t *testing.T) workloadSpec {
	t.Helper()
	w, err := loadWorkload("voqd-loopback")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The generator is a function of the seed alone, keeps an unsent
// arrival for the next leg, and builds frames the daemon's codec and
// the receiver's verification accept.
func TestFrameGen(t *testing.T) {
	w := voqdSpec(t)
	a, err := newFrameGen(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newFrameGen(w, 7)
	c, _ := newFrameGen(w, 8)
	differs := false
	var frames [][]byte
	for i := 0; i < 500; i++ {
		sa, sb := a.peek(), b.peek()
		if again := a.peek(); again != sa {
			t.Fatal("peek drew a second arrival before consume")
		}
		c.peek()
		fa := append([]byte(nil), a.encode(int64(i))...)
		if string(fa) != string(b.encode(int64(i))) || sa != sb {
			t.Fatalf("frame %d differs between two generators of one seed", i)
		}
		differs = differs || string(fa) != string(c.encode(int64(i)))
		frames = append(frames, fa)
		a.consume()
		b.consume()
		c.consume()
	}
	if !differs {
		t.Error("another seed generated the same frames")
	}
	if ns, err := codecNsPerFrame(frames); err != nil || ns <= 0 {
		t.Errorf("codec replay: %v ns, %v", ns, err)
	}
	if _, err := codecNsPerFrame(nil); err == nil {
		t.Error("a codec replay over no frames passed")
	}
}

// verify finds lost, duplicate and unexpected copies.
func TestLegVerify(t *testing.T) {
	mk := func() *leg {
		l := &leg{sentCopies: 3}
		l.sent = []sentRec{{src: 1, seq: 40, mask: 0b0110}, {src: 1, seq: 41, mask: 0b0001}}
		l.recv = []recvRec{{src: 1, out: 1, seq: 40}, {src: 1, out: 2, seq: 40}, {src: 1, out: 0, seq: 41}}
		l.received.Store(3)
		return l
	}
	if err := mk().verify(); err != nil {
		t.Errorf("a complete leg failed: %v", err)
	}
	lost := mk()
	lost.recv = lost.recv[:2]
	lost.received.Store(2)
	if err := lost.verify(); err == nil || lost.failedCopies(err) != 1 {
		t.Errorf("a lost copy: %v, %d failed", err, lost.failedCopies(err))
	}
	dup := mk()
	dup.recv = append(dup.recv, recvRec{src: 1, out: 1, seq: 40})
	if err := dup.verify(); err == nil {
		t.Error("a duplicate copy passed")
	}
	stray := mk()
	stray.recv[0].seq = 39
	if err := stray.verify(); err == nil {
		t.Error("a copy of a frame never sent passed")
	}
	bad := mk()
	bad.bad = 1
	if err := bad.verify(); err == nil {
		t.Error("an unverifiable payload passed")
	}
}

func TestLiveStepReplay(t *testing.T) {
	pat, err := traffic.UniformAtLoad(0.5, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(pat, 8, 2000, xrand.New(3))
	ns, err := liveStepNsPerSlot(tr, 3)
	if err != nil || ns <= 0 {
		t.Errorf("live replay: %v ns per slot, %v", ns, err)
	}
	if _, err := liveStepNsPerSlot(&traffic.Trace{N: 8}, 3); err == nil {
		t.Error("an empty transcript replayed")
	}
}

func TestCalibratorFactor(t *testing.T) {
	c := newCalibrator()
	ran := false
	wall, factor := c.timed(func() { ran = true })
	if !ran || wall < 0 || factor <= 0 || math.IsNaN(factor) {
		t.Errorf("timed: ran=%t wall=%v factor=%v", ran, wall, factor)
	}
}

// The whole voqd workload, sockets and all, for one short run.
func TestVoqdLoopbackRun(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets")
	}
	if cpusAvailable() < 2 {
		t.Skip("the workload refuses to run on one CPU")
	}
	res, err := runVoqd(voqdSpec(t), runOptions{seed: 7, seconds: 1, traced: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	for _, name := range []string{"setup_s", "slots_per_s", "pkts_per_s", "peak_rss_mb", "lat_p50_us",
		"daemon.codec_ns_per_frame", "daemon.live_step_ns_per_slot", "daemon.gen_late_p99_us", "daemon.lat_samples"} {
		if v, ok := res.Metrics[name]; !ok || v.Value <= 0 {
			t.Errorf("%s = %+v", name, v)
		}
	}
}

// One short traced run of a small switch writes a trace whose spans
// account for the slot.
func TestTracedPassWritesTrace(t *testing.T) {
	dir := t.TempDir()
	w := simSpec("tiny", workloadInputs{Ports: 16, Slots: 3000, Traffic: &trafficSpec{Kind: "uniform", Load: 0.9, MaxFanout: 4}})
	res, err := runSim(w, runOptions{seed: 9, seconds: 0.2, traced: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed ops: %v", res.Failures)
	}
	if u := res.Metrics["trace.unattributed_frac"].Value; u < 0 || u > 0.10 {
		t.Errorf("trace.unattributed_frac = %v", u)
	}
	for _, name := range []string{"core.match_ns_per_slot", "core.arrive_ns_per_slot", "core.transfer_ns_per_slot",
		"traffic.draw_ns_per_slot", "stats.record_ns_per_slot", "core.grants_per_request", "core.rounds_per_busy_slot"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(dir + "/trace-tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Sampled) != 3 || len(tf.Phases) == 0 || tf.Sampled[1].Slot != sampleEvery {
		t.Errorf("trace file holds %d sampled slots, %d phases", len(tf.Sampled), len(tf.Phases))
	}
	for _, sp := range tf.Sampled[0].Spans {
		if sp.EndNs < sp.StartNs {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
}
