package voqsim

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestRunFIFOMS(t *testing.T) {
	rep, err := Run(Config{
		Ports:     8,
		Scheduler: FIFOMS,
		Traffic:   BernoulliTraffic(0.3, 0.25),
		Slots:     10_000,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unstable {
		t.Fatal("moderate load unstable")
	}
	if rep.AvgInputDelay < 1 || rep.AvgInputDelay > 10 {
		t.Fatalf("implausible delay %v", rep.AvgInputDelay)
	}
	if rep.CompletedPackets == 0 || rep.Throughput <= 0 {
		t.Fatalf("no work measured: %+v", rep)
	}
	if rep.Load != 0.3*0.25*8 {
		t.Fatalf("Load = %v", rep.Load)
	}
	if !strings.Contains(rep.String(), "fifoms") {
		t.Fatalf("String = %q", rep.String())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Scheduler: FIFOMS, Traffic: BernoulliTraffic(0.1, 0.1)}); err == nil {
		t.Fatal("zero ports accepted")
	}
	if _, err := Run(Config{Ports: 8, Scheduler: "bogus", Traffic: BernoulliTraffic(0.1, 0.1)}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
	if _, err := Run(Config{Ports: 8, Scheduler: FIFOMS}); err == nil {
		t.Fatal("empty traffic accepted")
	}
	if _, err := Run(Config{Ports: 8, Scheduler: FIFOMS, Traffic: BernoulliTrafficAtLoad(5, 0.2)}); err == nil {
		t.Fatal("unreachable load accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{Ports: 8, Scheduler: FIFOMS, Traffic: UniformTraffic(0.4, 4), Slots: 5000, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config, different reports:\n%+v\n%+v", a, b)
	}
}

// TestRunParallelIdentity pins the facade's multicore contract: a
// fabric run with Parallel workers returns the same report as the
// sequential run, and Parallel without a Topology is a config error.
func TestRunParallelIdentity(t *testing.T) {
	cfg := Config{
		Scheduler: FIFOMS,
		Topology:  "fattree:k=4",
		Traffic:   BernoulliTraffic(0.3, 0.12),
		Slots:     2000,
		Seed:      7,
	}
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		cfg.Parallel = w
		par, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("Parallel=%d changed the report:\n%+v\n%+v", w, par, seq)
		}
	}
	cfg = Config{Ports: 8, Scheduler: FIFOMS, Traffic: BernoulliTraffic(0.3, 0.25), Slots: 100, Parallel: 4}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Topology") {
		t.Fatalf("Parallel without Topology accepted (err=%v)", err)
	}
}

// TestRunDrawAheadIdentity drives the facade's own opt-in (DESIGN.md
// §17): GOMAXPROCS decides whether Run draws the traffic inline or a
// batch ahead on a spare CPU, and must decide nothing else — reports
// and checkpoint blobs match the single-CPU run's.
func TestRunDrawAheadIdentity(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, cfg := range []Config{
		{Ports: 16, Scheduler: FIFOMS, Traffic: UniformTraffic(0.24, 4), Slots: 3000, Seed: 7},
		{Scheduler: FIFOMS, Topology: "fattree:k=4", Parallel: 2, Traffic: BernoulliTraffic(0.3, 0.12), Slots: 1500, Seed: 7},
	} {
		type outcome struct {
			rep   Report
			blobs [][]byte
		}
		var want outcome
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var got outcome
			var err error
			got.rep, err = RunResumable(cfg, nil, 700, func(_ int64, blob []byte) error {
				got.blobs = append(got.blobs, bytes.Clone(blob))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d changed the %s run:\n%+v\n%+v", procs, cfg.Topology, got.rep, want.rep)
			}
		}
	}
}

func TestTrafficAtLoadResolves(t *testing.T) {
	tr := BernoulliTrafficAtLoad(0.8, 0.2)
	load, err := tr.EffectiveLoad(16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-0.8) > 1e-12 {
		t.Fatalf("EffectiveLoad = %v", load)
	}
	if !strings.Contains(tr.String(), "bernoulli") {
		t.Fatalf("String = %q", tr.String())
	}
	if got := (Traffic{}).String(); got != "traffic(unspecified)" {
		t.Fatalf("empty Traffic String = %q", got)
	}
}

func TestAllTrafficConstructors(t *testing.T) {
	for name, tr := range map[string]Traffic{
		"bernoulli":     BernoulliTraffic(0.5, 0.2),
		"bernoulliLoad": BernoulliTrafficAtLoad(0.5, 0.2),
		"uniform":       UniformTraffic(0.5, 4),
		"uniformLoad":   UniformTrafficAtLoad(0.5, 4),
		"burst":         BurstTraffic(240, 16, 0.5), // load 0.5*16*16/256 = 0.5
		"burstLoad":     BurstTrafficAtLoad(0.5, 0.5, 16),
		"mixed":         MixedTraffic(0.5, 0.5, 8),
		"hotspot":       HotspotTraffic(0.1, 0.5, 0.1, 3), // hot load 0.8
		"hotspotLoad":   HotspotTrafficAtLoad(0.8, 4),
		"diagonal":      DiagonalTraffic(0.7),
	} {
		rep, err := Run(Config{Ports: 16, Scheduler: OQFIFO, Traffic: tr, Slots: 2000, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.CompletedPackets == 0 {
			t.Fatalf("%s: no packets", name)
		}
	}
}

func TestCompareSharesTraffic(t *testing.T) {
	cfg := Config{Ports: 8, Traffic: BernoulliTraffic(0.3, 0.25), Slots: 5000, Seed: 9}
	reps, err := Compare(cfg, FIFOMS, TATRA, ISLIP, OQFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("%d reports", len(reps))
	}
	for i, want := range []Scheduler{FIFOMS, TATRA, ISLIP, OQFIFO} {
		if reps[i].Scheduler != want {
			t.Fatalf("report %d is %s, want %s", i, reps[i].Scheduler, want)
		}
		// Identical seed and traffic family: all reports see the same
		// offered load.
		if reps[i].Load != reps[0].Load {
			t.Fatalf("loads differ: %v vs %v", reps[i].Load, reps[0].Load)
		}
	}
	if _, err := Compare(cfg); err == nil {
		t.Fatal("empty scheduler list accepted")
	}
}

func TestSchedulersListed(t *testing.T) {
	all := Schedulers()
	if len(all) < 6 {
		t.Fatalf("only %d schedulers", len(all))
	}
	seen := map[Scheduler]bool{}
	for _, s := range all {
		seen[s] = true
	}
	for _, want := range []Scheduler{FIFOMS, TATRA, ISLIP, OQFIFO, PIM, WBA} {
		if !seen[want] {
			t.Fatalf("missing scheduler %s in %v", want, all)
		}
	}
}

func TestFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced sweep")
	}
	// Each figure renders and exports its own headline metrics, the
	// ones `voqsweep -figure` and voqreport show for it.
	for _, tc := range []struct{ name, metric string }{
		{"fig5", "rounds"},
		{"memory", "buffer_bytes"},
	} {
		res, err := Figure(tc.name, FigureOptions{Slots: 3000, Seed: 7, Plots: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Name != tc.name || !strings.Contains(res.Text, "fifoms") {
			t.Fatalf("%s text:\n%s", tc.name, res.Text)
		}
		if len(res.Loads) == 0 {
			t.Fatalf("%s: no loads", tc.name)
		}
		if _, ok := res.Series["fifoms/"+tc.metric]; !ok {
			t.Fatalf("%s series keys: %v", tc.name, keys(res.Series))
		}
		if !strings.Contains(res.Text, "y: "+tc.metric) {
			t.Fatalf("%s: no %s plot rendered:\n%s", tc.name, tc.metric, res.Text)
		}
	}
}

func keys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestFigureUnknown(t *testing.T) {
	if _, err := Figure("fig99", FigureOptions{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureNames(t *testing.T) {
	names := FigureNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "mixed"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("FigureNames missing %s: %v", want, names)
		}
	}
}
