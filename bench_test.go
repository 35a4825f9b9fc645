package voqsim

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (Section V). Each BenchmarkFigN runs the full
// (algorithm x load) sweep behind the corresponding figure once per
// iteration at a reduced slot budget and reports headline values from
// the measured series with b.ReportMetric, so `go test -bench=.`
// reproduces the comparison the paper plots. Absolute delay numbers
// depend on the slot budget; the qualitative shape (who wins, where
// the knees are) is what the shape checkers assert.
//
// BenchmarkPreprocess and BenchmarkFIFOMSMatch cover Tables 1 and 2:
// the per-packet preprocessing cost and the per-slot scheduling cost of
// the algorithms themselves.

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/experiment"
	"voqsim/internal/oq"
	"voqsim/internal/sched/islip"
	"voqsim/internal/sched/pim"
	"voqsim/internal/switchsim"
	"voqsim/internal/tatra"
	"voqsim/internal/traffic"
	"voqsim/internal/wba"
	"voqsim/internal/xrand"
)

// benchSlots keeps full-sweep benchmarks at a budget where one
// iteration is seconds, not minutes; raise with -benchtime for
// publication-grade runs.
const benchSlots = 10_000

func benchSweep(b *testing.B, figure string) *experiment.Sweep {
	b.Helper()
	fig, err := experiment.FigureByName(figure)
	if err != nil {
		b.Fatal(err)
	}
	return fig.Sweep(experiment.Options{Slots: benchSlots, Seed: 2004})
}

// runFigureBench executes the sweep once per b.N iteration and reports
// the chosen headline series values as custom metrics.
func runFigureBench(b *testing.B, sweep *experiment.Sweep, metric experiment.Metric, headlineLoad float64, algos ...string) {
	b.Helper()
	var tbl *experiment.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = sweep.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, algo := range algos {
		ys, err := tbl.Series(algo, metric)
		if err != nil {
			b.Fatal(err)
		}
		li := nearestLoad(tbl.Loads, headlineLoad)
		b.ReportMetric(ys[li], fmt.Sprintf("%s_%s@%.2f", algo, metric.Name, tbl.Loads[li]))
	}
}

func nearestLoad(loads []float64, want float64) int {
	best, bestDist := 0, -1.0
	for i, l := range loads {
		d := l - want
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// BenchmarkFig4BernoulliSweep regenerates Figure 4: 16x16 switch,
// Bernoulli traffic with b=0.2, all four algorithms over the load
// axis; the headline metric is the input-oriented delay at load 0.7.
func BenchmarkFig4BernoulliSweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "fig4"), experiment.InputDelay, 0.7,
		"fifoms", "tatra", "islip", "oqfifo")
}

// BenchmarkFig5ConvergenceRounds regenerates Figure 5: average
// convergence rounds of FIFOMS vs iSLIP under Figure 4's traffic.
func BenchmarkFig5ConvergenceRounds(b *testing.B) {
	runFigureBench(b, benchSweep(b, "fig5"), experiment.Rounds, 0.7,
		"fifoms", "islip")
}

// BenchmarkFig6UnicastSweep regenerates Figure 6: pure unicast traffic
// (uniform, maxFanout=1).
func BenchmarkFig6UnicastSweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "fig6"), experiment.InputDelay, 0.5,
		"fifoms", "tatra", "islip", "oqfifo")
}

// BenchmarkFig7UniformFanout8Sweep regenerates Figure 7: uniform
// traffic with maxFanout=8.
func BenchmarkFig7UniformFanout8Sweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "fig7"), experiment.InputDelay, 0.7,
		"fifoms", "tatra", "islip", "oqfifo")
}

// BenchmarkFig8BurstSweep regenerates Figure 8: bursty traffic with
// b=0.5 and Eon=16.
func BenchmarkFig8BurstSweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "fig8"), experiment.InputDelay, 0.5,
		"fifoms", "tatra", "islip", "oqfifo")
}

// BenchmarkAblationRounds sweeps the FIFOMS iteration-cap ablation.
func BenchmarkAblationRounds(b *testing.B) {
	runFigureBench(b, benchSweep(b, "ablation-rounds"), experiment.InputDelay, 0.8,
		"fifoms-r1", "fifoms")
}

// BenchmarkAblationSplitting sweeps the fanout-splitting ablation.
func BenchmarkAblationSplitting(b *testing.B) {
	runFigureBench(b, benchSweep(b, "ablation-splitting"), experiment.InputDelay, 0.8,
		"fifoms", "fifoms-nosplit")
}

// BenchmarkAblationCriterion sweeps the FIFO-vs-longest-queue
// criterion ablation.
func BenchmarkAblationCriterion(b *testing.B) {
	runFigureBench(b, benchSweep(b, "ablation-criterion"), experiment.InputDelay, 0.8,
		"fifoms", "lqfms")
}

// BenchmarkSpeedupSweep sweeps CIOQ fabric speedups against the pure
// input-queued and output-queued designs.
func BenchmarkSpeedupSweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "speedup"), experiment.InputDelay, 0.9,
		"fifoms", "cioq-s2", "oqfifo")
}

// BenchmarkIndustrySweep compares FIFOMS with the industrial ESLIP
// scheduler under the paper's Bernoulli traffic.
func BenchmarkIndustrySweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "industry"), experiment.InputDelay, 0.6,
		"fifoms", "eslip")
}

// BenchmarkHotspotSweep sweeps the non-uniform hotspot pattern.
func BenchmarkHotspotSweep(b *testing.B) {
	runFigureBench(b, benchSweep(b, "hotspot"), experiment.InputDelay, 0.7,
		"fifoms", "oqfifo")
}

// BenchmarkPreprocess measures Table 1: turning one arriving
// multicast packet into one data cell plus fanout address cells. The
// switch is drained every n arrivals, outside the timer, so buffers
// stay small.
func BenchmarkPreprocess(b *testing.B) {
	l := newPreprocessLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.arrive() {
			b.StopTimer()
			l.drain()
			b.StartTimer()
		}
	}
}

// preprocessLoop feeds a 16-port FIFOMS switch fanout-8 packets, one
// per call to arrive. Packet shells are pre-allocated and recycled: a
// drain, due after every 16 arrivals, drops every switch-held
// reference before a shell is reused, so the loop measures the
// switch's arrival path alone. TestPreprocessZeroAllocs depends on
// this.
type preprocessLoop struct {
	sw    *core.Switch
	dests *destset.Set
	pool  [16]cell.Packet
	i     int
}

func newPreprocessLoop() *preprocessLoop {
	return &preprocessLoop{
		sw:    core.NewSwitch(16, &core.FIFOMS{}, xrand.New(1)),
		dests: destset.FromMembers(16, 0, 2, 4, 6, 8, 10, 12, 14),
	}
}

// arrive hands the switch one packet and reports whether a drain is
// due.
func (l *preprocessLoop) arrive() bool {
	p := &l.pool[l.i%len(l.pool)]
	*p = cell.Packet{ID: cell.PacketID(l.i), Input: l.i % len(l.pool), Arrival: int64(l.i), Dests: l.dests}
	l.sw.Arrive(p)
	l.i++
	return l.i%len(l.pool) == 0
}

// drain steps the switch until it buffers nothing.
func (l *preprocessLoop) drain() {
	for l.sw.BufferedCells() > 0 {
		l.sw.Step(int64(l.i-1), func(cell.Delivery) {})
	}
}

// loadedSwitch returns a switch with every VOQ backlogged, the
// worst-case state for one scheduling step.
func loadedSwitch(n int, arb core.Arbiter) *core.Switch {
	sw := core.NewSwitch(n, arb, xrand.New(7))
	id := cell.PacketID(0)
	for in := 0; in < n; in++ {
		for round := 0; round < 4; round++ {
			d := destset.New(n)
			for out := 0; out < n; out++ {
				if (in+out+round)%3 == 0 {
					d.Add(out)
				}
			}
			if d.Empty() {
				d.Add((in + round) % n)
			}
			id++
			sw.Arrive(&cell.Packet{ID: id, Input: in, Arrival: int64(round), Dests: d})
		}
	}
	return sw
}

// BenchmarkFIFOMSMatch measures Table 2: one FIFOMS scheduling round
// set on a fully backlogged 16x16 switch (arbitration only, through a
// full Step including transfer and refill bookkeeping).
func BenchmarkFIFOMSMatch(b *testing.B) {
	benchStep(b, func() switchsim.Switch { return loadedSwitch(16, &core.FIFOMS{}) })
}

// BenchmarkISLIPMatch measures iSLIP's per-slot cost on the same
// backlogged state.
func BenchmarkISLIPMatch(b *testing.B) {
	benchStep(b, func() switchsim.Switch { return loadedSwitch(16, islip.New()) })
}

// BenchmarkPIMMatch measures PIM's per-slot cost.
func BenchmarkPIMMatch(b *testing.B) {
	benchStep(b, func() switchsim.Switch { return loadedSwitch(16, pim.New()) })
}

// benchStep repeatedly steps a freshly loaded switch; when the backlog
// drains the switch is rebuilt outside the timer.
func benchStep(b *testing.B, mk func() switchsim.Switch) {
	b.Helper()
	sw := mk()
	drain := func(cell.Delivery) {}
	slot := int64(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sw.BufferedCells() == 0 {
			b.StopTimer()
			sw = mk()
			b.StartTimer()
		}
		sw.Step(slot, drain)
		slot++
	}
}

// benchEndToEnd measures whole-simulation throughput (slots/op
// inverse) for one architecture at a fixed operating point.
func benchEndToEnd(b *testing.B, mk func() switchsim.Switch, pat traffic.Pattern) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runner := switchsim.New(mk(), pat, switchsim.Config{Slots: 5000, Seed: uint64(i)}, xrand.New(uint64(i)))
		res := runner.Run("bench")
		if res.Completed == 0 {
			b.Fatal("no packets completed")
		}
	}
	b.ReportMetric(5000*float64(b.N)/b.Elapsed().Seconds(), "slots/s")
}

// BenchmarkEndToEndFIFOMS runs 5000 slots of a 16x16 FIFOMS switch at
// load 0.8 per iteration.
func BenchmarkEndToEndFIFOMS(b *testing.B) {
	benchEndToEnd(b, func() switchsim.Switch {
		return core.NewSwitch(16, &core.FIFOMS{}, xrand.New(3))
	}, traffic.Bernoulli{P: 0.25, B: 0.2})
}

// BenchmarkEndToEndISLIP is the iSLIP counterpart.
func BenchmarkEndToEndISLIP(b *testing.B) {
	benchEndToEnd(b, func() switchsim.Switch {
		return core.NewSwitch(16, islip.New(), xrand.New(3))
	}, traffic.Bernoulli{P: 0.25, B: 0.2})
}

// BenchmarkEndToEndTATRA is the TATRA counterpart.
func BenchmarkEndToEndTATRA(b *testing.B) {
	benchEndToEnd(b, func() switchsim.Switch { return tatra.New(16) },
		traffic.Bernoulli{P: 0.25, B: 0.2})
}

// BenchmarkEndToEndWBA is the WBA counterpart.
func BenchmarkEndToEndWBA(b *testing.B) {
	benchEndToEnd(b, func() switchsim.Switch { return wba.New(16, xrand.New(3)) },
		traffic.Bernoulli{P: 0.25, B: 0.2})
}

// BenchmarkEndToEndOQ is the output-queued counterpart.
func BenchmarkEndToEndOQ(b *testing.B) {
	benchEndToEnd(b, func() switchsim.Switch { return oq.New(16) },
		traffic.Bernoulli{P: 0.25, B: 0.2})
}
