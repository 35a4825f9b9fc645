package experiment

import (
	"fmt"
	"math"
)

// Shape checking: the reproduction cannot match the paper's absolute
// numbers (different tie-break randomness, different slot budgets),
// but the qualitative claims of Section V — who wins, where the
// saturation knees fall — must hold. Each figure has a checker that
// returns a list of violated claims (empty means the shape holds).
// Each figureTable row holds its checker as Figure.Check; the tests,
// `voqsweep -figure`, the facade and `voqreport` (which records the
// verdicts in EXPERIMENTS.md form) call it with the row in hand.

// pointAt returns the point of algo at the load closest to want.
func (t *Table) pointAt(algo string, want float64) (Point, error) {
	bestLI, bestDist := -1, math.Inf(1)
	for li, l := range t.Loads {
		if d := math.Abs(l - want); d < bestDist {
			bestLI, bestDist = li, d
		}
	}
	if bestLI < 0 {
		return Point{}, fmt.Errorf("experiment: table %q has no loads", t.Name)
	}
	return t.Get(algo, bestLI)
}

// check appends a formatted violation when cond is false.
func check(violations *[]string, cond bool, format string, args ...any) {
	if !cond {
		*violations = append(*violations, fmt.Sprintf(format, args...))
	}
}

// stableAt reports whether algo is stable at the load nearest want.
func (t *Table) stableAt(algo string, want float64) bool {
	pt, err := t.pointAt(algo, want)
	if err != nil {
		return false
	}
	return pt.Skipped == "" && !pt.Results.Unstable
}

// unstableByLoad reports whether algo has gone unstable at or before
// the load nearest want.
func (t *Table) unstableByLoad(algo string, want float64) bool {
	for li, l := range t.Loads {
		if l > want+1e-9 {
			break
		}
		pt, err := t.Get(algo, li)
		if err != nil {
			return false
		}
		if pt.Results.Unstable {
			return true
		}
	}
	return false
}

// metricAt returns metric m of algo at the load nearest want.
func (t *Table) metricAt(algo string, m Metric, want float64) float64 {
	pt, err := t.pointAt(algo, want)
	if err != nil {
		return math.NaN()
	}
	return m.ValueOf(pt)
}

// CheckFig4 verifies the Bernoulli-traffic claims: FIFOMS tracks
// OQFIFO's delay and stays stable to high load; TATRA hits its HOL
// knee around 0.8; iSLIP pays a large multicast delay penalty; FIFOMS
// needs the least buffer space.
func (t *Table) CheckFig4() []string {
	var v []string
	const mid = 0.6
	check(&v, t.stableAt("fifoms", 0.9), "fifoms unstable at load 0.9")
	check(&v, t.stableAt("oqfifo", 0.95), "oqfifo unstable at load 0.95")
	check(&v, t.unstableByLoad("tatra", 0.95), "tatra never saturated by load 0.95 (HOL knee missing)")
	check(&v, t.stableAt("tatra", 0.6), "tatra already unstable at load 0.6")

	fifoDelay := t.metricAt("fifoms", InputDelay, mid)
	oqDelay := t.metricAt("oqfifo", InputDelay, mid)
	islipDelay := t.metricAt("islip", InputDelay, mid)
	check(&v, fifoDelay <= 2.5*oqDelay,
		"fifoms input delay %.2f not close to oqfifo %.2f at load %.2f", fifoDelay, oqDelay, mid)
	check(&v, islipDelay >= 1.5*fifoDelay,
		"islip input delay %.2f lacks the multicast penalty vs fifoms %.2f", islipDelay, fifoDelay)

	for _, other := range []string{"tatra", "islip", "oqfifo"} {
		fo, oo := t.metricAt("fifoms", AvgQueue, mid), t.metricAt(other, AvgQueue, mid)
		check(&v, fo <= oo*1.1+0.2, "fifoms avg queue %.2f above %s's %.2f at load %.2f", fo, other, oo, mid)
	}
	return v
}

// CheckFig5 verifies the convergence claims: both schedulers converge
// in far fewer than N rounds, are insensitive to load while stable,
// and take roughly the same number of rounds.
func (t *Table) CheckFig5() []string {
	var v []string
	n := float64(t.N)
	for _, algo := range []string{"fifoms", "islip"} {
		lo, hi := t.metricAt(algo, Rounds, 0.1), t.metricAt(algo, Rounds, 0.7)
		check(&v, lo >= 1 && lo <= n/2, "%s rounds %.2f at load 0.1 implausible", algo, lo)
		check(&v, hi <= n/2, "%s rounds %.2f at load 0.7 not << N", algo, hi)
		check(&v, hi <= lo*3+1, "%s rounds too load-sensitive: %.2f -> %.2f", algo, lo, hi)
	}
	f, i := t.metricAt("fifoms", Rounds, 0.5), t.metricAt("islip", Rounds, 0.5)
	check(&v, math.Abs(f-i) <= 0.5*math.Max(f, i)+0.5,
		"fifoms (%.2f) and islip (%.2f) rounds diverge at load 0.5", f, i)
	return v
}

// CheckFig6 verifies the pure-unicast claims: TATRA saturates near the
// 0.586 HOL bound; FIFOMS matches iSLIP's delay and stays stable to
// high load with the smallest buffers.
func (t *Table) CheckFig6() []string {
	var v []string
	check(&v, t.unstableByLoad("tatra", 0.7), "tatra not saturated by 0.7 under unicast (theory: 0.586)")
	check(&v, t.stableAt("tatra", 0.5), "tatra unstable at 0.5, below the HOL bound")
	check(&v, t.stableAt("fifoms", 0.9), "fifoms unstable at 0.9 under unicast")
	check(&v, t.stableAt("islip", 0.9), "islip unstable at 0.9 under unicast")

	const mid = 0.6
	f, i := t.metricAt("fifoms", InputDelay, mid), t.metricAt("islip", InputDelay, mid)
	check(&v, f <= 1.5*i+0.5, "fifoms unicast delay %.2f far above islip %.2f", f, i)
	fq, iq := t.metricAt("fifoms", AvgQueue, mid), t.metricAt("islip", AvgQueue, mid)
	check(&v, fq <= iq*1.1+0.2, "fifoms unicast avg queue %.2f above islip %.2f", fq, iq)
	return v
}

// CheckFig7 verifies the bounded-fanout claims: FIFOMS has the
// shortest delay of the input-queued schedulers and beats even OQFIFO
// on buffer space; TATRA does better than under unicast.
func (t *Table) CheckFig7() []string {
	var v []string
	const mid = 0.6
	f := t.metricAt("fifoms", InputDelay, mid)
	for _, other := range []string{"tatra", "islip"} {
		o := t.metricAt(other, InputDelay, mid)
		check(&v, f <= o*1.1+0.2, "fifoms delay %.2f not the best input-queued (vs %s %.2f)", f, other, o)
	}
	fq, oq := t.metricAt("fifoms", AvgQueue, 0.7), t.metricAt("oqfifo", AvgQueue, 0.7)
	check(&v, fq <= oq*1.1+0.2, "fifoms avg queue %.2f above oqfifo %.2f at 0.7", fq, oq)
	check(&v, t.stableAt("tatra", 0.7), "tatra unstable at 0.7 despite maxFanout=8 (should beat its unicast knee)")
	return v
}

// CheckFig8 verifies the burst-traffic claims: iSLIP saturates very
// early; FIFOMS beats TATRA on delay but not OQFIFO; FIFOMS has the
// smallest queues; everyone saturates earlier than under Bernoulli.
func (t *Table) CheckFig8() []string {
	var v []string
	// The paper: "iSLIP saturates at a so small value that it cannot
	// even be seen in the first two graphs" — its delay is an order of
	// magnitude above everyone else's already at low load, and it goes
	// unstable well before the others.
	fLow, iLow := t.metricAt("fifoms", InputDelay, 0.2), t.metricAt("islip", InputDelay, 0.2)
	check(&v, iLow >= 4*fLow, "islip burst delay %.2f at load 0.2 not >> fifoms %.2f", iLow, fLow)
	check(&v, t.unstableByLoad("islip", 0.95), "islip never saturated under bursts")

	const mid = 0.6
	f, ta := t.metricAt("fifoms", InputDelay, mid), t.metricAt("tatra", InputDelay, mid)
	o := t.metricAt("oqfifo", InputDelay, mid)
	check(&v, f <= ta*1.2+0.5, "fifoms burst delay %.2f above tatra %.2f", f, ta)
	check(&v, o <= f*1.5+0.5, "oqfifo burst delay %.2f far above fifoms %.2f", o, f)
	for _, other := range []string{"tatra", "oqfifo"} {
		fq, oq := t.metricAt("fifoms", AvgQueue, mid), t.metricAt(other, AvgQueue, mid)
		check(&v, fq <= oq*1.2+0.5, "fifoms burst avg queue %.2f above %s %.2f", fq, other, oq)
	}
	return v
}
