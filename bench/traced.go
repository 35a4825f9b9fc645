package main

import (
	"fmt"
	"math"
	"time"

	"voqsim"
	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/stats"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The traced driver calls the public functions switchsim.Runner.tick
// calls, but in phase order, so that one span covers one layer per
// slot: draw every source, register the arrivals with the statistics,
// hand each packet to the switch, step the switch (the arbiter's Match
// is a child span of Step), then replay the buffered deliveries into
// the statistics. It must reproduce the untraced run's Report to the
// last bit; that equality is what licenses calling its numbers the
// program's own.

// Span names double as the layer names of the trace file.
const (
	spanDraw     = "traffic.draw"
	spanStatsArr = "stats.arrive"
	spanArrive   = "switch.arrive"
	spanStep     = "switch.step"
	spanMatch    = "core.match"
	spanStats    = "stats.deliver"
	spanNodeStep = "node.step"
)

// traceEpoch anchors span clocks; time.Since on it is one monotonic
// clock read.
var traceEpoch = time.Now()

func nowNs() int64 { return int64(time.Since(traceEpoch)) }

// timedFIFOMS is the timing core.Arbiter decorator. Embedding the
// concrete arbiter forwards every method it has or will have; only
// Match is intercepted.
type timedFIFOMS struct {
	*core.FIFOMS
	ns, calls       int64
	lastStart, last int64
}

func (t *timedFIFOMS) Match(s *core.Switch, slot int64, r *xrand.Rand, m *core.Matching) {
	t.lastStart = nowNs()
	t.FIFOMS.Match(s, slot, r, m)
	t.last = nowNs()
	t.ns += t.last - t.lastStart
	t.calls++
}

// timedNode wraps one fabric node. Embedding *core.Switch forwards
// every optional capability the fabric or the engine probes for
// (release hook, input backlog, observer, buffer walk, snapshot);
// Step and Arrive are timed. With Parallel: 2 each node is stepped by
// one worker per slot and the fabric's WaitGroup orders the writes
// before anyone reads them; the padding keeps two workers' counters
// off one cache line.
type timedNode struct {
	*core.Switch
	arb                *timedFIFOMS
	stepNs, arriveNs   int64
	lastStart, lastEnd int64
	_                  [16]byte
}

func (n *timedNode) Step(slot int64, deliver func(cell.Delivery)) {
	n.lastStart = nowNs()
	n.Switch.Step(slot, deliver)
	n.lastEnd = nowNs()
	n.stepNs += n.lastEnd - n.lastStart
}

func (n *timedNode) Arrive(p *cell.Packet) {
	t0 := nowNs()
	n.Switch.Arrive(p)
	n.arriveNs += nowNs() - t0
}

// span is one recorded interval of a sampled slot.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Node    *int   `json:"node,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// sampledSlot holds the spans of one slot; they share the slot id.
type sampledSlot struct {
	Slot  int64  `json:"slot"`
	Spans []span `json:"spans"`
}

// sampleEvery is the 1-in-K rate at which whole slots are kept as
// spans; every slot feeds the per-phase accumulators.
const sampleEvery = 1024

// phaseTotals are one traced repetition's accumulators.
type phaseTotals struct {
	slots int64
	// constructNs is everything before the first slot (switch, sources,
	// statistics: what voqsim.Run also pays); wallNs is the slot loop.
	constructNs, wallNs int64
	// factor is the host's slowness around the repetition
	// (calibrate.go); every span time is divided by it.
	factor                            float64
	drawNs, statsNs, arriveNs, stepNs int64
	matchNs, matchCalls               int64
	nodeStepNs, nodeArriveNs          int64
	arrivals, fabricDelivered         int64
	sampled                           []sampledSlot
	pending                           int64 // fabric copies still buffered at the end
	pendingKnown                      bool
}

// tracedEvent is a delivery or a drop, buffered during Step and
// replayed into the statistics afterwards in the order they happened.
type tracedEvent struct {
	d      cell.Delivery
	drop   bool
	copies int
}

// tracedSim runs a switch or fabric workload through the traced
// driver. parallel > 1 steps the fabric's wrapped nodes on that many
// workers; o, when set, is attached for exact counts (metrics on,
// trace off).
func tracedSim(w workloadSpec, seed uint64, parallel int, o *obs.Observer) (voqsim.Report, phaseTotals, error) {
	in := w.Inputs
	var tot phaseTotals
	entered := nowNs()
	if in.Traffic == nil {
		return voqsim.Report{}, tot, fmt.Errorf("bench: workload %s has no traffic", w.Name)
	}

	// The seed derivation mirrors voqsim.Run's: switch stream first,
	// then traffic.
	seedRoot := xrand.New(seed)
	var (
		sw    switchsim.Switch
		name  = string(voqsim.FIFOMS)
		arb   *timedFIFOMS
		nodes []*timedNode
		fab   *fabric.Fabric
		n     = in.Ports
	)
	if in.Topology != "" {
		top, err := fabric.ParseSpec(in.Topology)
		if err != nil {
			return voqsim.Report{}, tot, err
		}
		if n == 0 {
			n = top.Ingress()
		}
		newNode := func(ports int, r *xrand.Rand) fabric.Node {
			a := &timedFIFOMS{FIFOMS: &core.FIFOMS{}}
			nd := &timedNode{Switch: core.NewSwitch(ports, a, r), arb: a}
			if o != nil {
				nd.SetObserver(o)
			}
			nodes = append(nodes, nd)
			return nd
		}
		fab, err = fabric.New(top, fabric.Config{Workers: parallel}, newNode, seedRoot.Split("switch", 0))
		if err != nil {
			return voqsim.Report{}, tot, err
		}
		defer fab.Close()
		sw = fab
		name += "@" + top.Name()
	} else {
		arb = &timedFIFOMS{FIFOMS: &core.FIFOMS{}}
		cs := core.NewSwitch(n, arb, seedRoot.Split("switch", 0))
		if o != nil {
			cs.SetObserver(o)
		}
		sw = cs
	}
	pat, err := in.Traffic.pattern(n)
	if err != nil {
		return voqsim.Report{}, tot, err
	}

	// From here on this is switchsim.New plus Runner.tick, defaults
	// included.
	slots := in.Slots
	const warmupFrac = 0.5
	warmup := int64(float64(slots) * warmupFrac)
	unstableLimit := int64(1000 * n)
	var fastEvery int64
	if in.Fast {
		pat = traffic.Fast(pat)
		fastEvery = 16
	}
	sources := traffic.BuildSources(pat, n, seedRoot.Split("traffic", 0))
	into := make([]traffic.IntoSource, n)
	for i, src := range sources {
		into[i], _ = src.(traffic.IntoSource)
	}
	tracker := stats.NewDelayTracker(warmup)
	var skips []traffic.SkipSource
	if in.Fast {
		tracker.EnableDeferred(n, fastEvery)
		tracker.EnableSampling(fastEvery)
		skips = make([]traffic.SkipSource, n)
		for i, src := range sources {
			skips[i], _ = src.(traffic.SkipSource)
		}
	}
	rr, _ := sw.(switchsim.RoundsReporter)
	br, _ := sw.(switchsim.BytesReporter)
	var freePkts []*cell.Packet
	if pr, ok := sw.(switchsim.PacketReleaser); ok {
		pr.SetReleaseHook(func(p *cell.Packet) { freePkts = append(freePkts, p) })
	}
	var events []tracedEvent
	if dr, ok := sw.(switchsim.DropReporter); ok {
		dr.SetDropHook(func(d fabric.Drop) {
			events = append(events, tracedEvent{d: cell.Delivery{ID: d.ID}, drop: true, copies: d.Leaves.Count()})
		})
	}
	// The deliver callback only buffers, so Step's span holds no
	// statistics work.
	deliver := func(d cell.Delivery) { events = append(events, tracedEvent{d: d}) }

	var (
		occ       stats.Occupancy
		rounds    stats.Welford
		bytes     stats.Welford
		peak      stats.MaxInt64
		sizes     = make([]int, n)
		arrivals  []*cell.Packet
		nextID    cell.PacketID
		delivered int64
		unstable  bool
		unstableA int64
	)

	wallStart := nowNs()
	tot.constructNs = wallStart - entered
	var slot int64
	for slot = 0; slot < slots; slot++ {
		t0 := nowNs()
		arrivals = arrivals[:0]
		for i, src := range sources {
			if skips != nil {
				if sk := skips[i]; sk != nil && sk.NextArrival() > slot {
					continue
				}
			}
			var p *cell.Packet
			if is := into[i]; is != nil {
				if k := len(freePkts) - 1; k >= 0 {
					p, freePkts = freePkts[k], freePkts[:k]
				} else {
					p = &cell.Packet{Dests: destset.New(n)}
				}
				if !is.NextInto(slot, p.Dests) {
					freePkts = append(freePkts, p)
					continue
				}
			} else {
				dests := src.Next(slot)
				if dests == nil {
					continue
				}
				p = &cell.Packet{Dests: dests}
			}
			nextID++
			p.ID, p.Input, p.Arrival = nextID, i, slot
			arrivals = append(arrivals, p)
		}
		t1 := nowNs()
		for _, p := range arrivals {
			tracker.Arrive(p)
		}
		t2 := nowNs()
		for _, p := range arrivals {
			sw.Arrive(p)
		}
		t3 := nowNs()
		busy := sw.BufferedCells() > 0
		events = events[:0]
		sw.Step(slot, deliver)
		t4 := nowNs()
		for i := range events {
			e := &events[i]
			if e.drop {
				tracker.Drop(e.d.ID, e.copies)
				continue
			}
			tot.fabricDelivered++
			if e.d.Slot >= warmup {
				delivered++
			}
			tracker.Deliver(e.d)
		}
		if slot >= warmup && !(fastEvery > 1 && (slot-warmup)%fastEvery != 0) {
			occ.Sample(sw.QueueSizes(sizes))
			if rr != nil && busy {
				rounds.Add(float64(rr.LastRounds()))
			}
			if br != nil {
				total := br.BufferedBytes()
				bytes.Add(float64(total) / float64(n))
				peak.Observe(total)
			}
		}
		t5 := nowNs()

		tot.arrivals += int64(len(arrivals))
		tot.drawNs += t1 - t0
		tot.statsNs += (t2 - t1) + (t5 - t4)
		tot.arriveNs += t3 - t2
		tot.stepNs += t4 - t3
		if slot%sampleEvery == 0 {
			ss := sampledSlot{Slot: slot, Spans: []span{
				{Name: spanDraw, StartNs: t0, EndNs: t1},
				{Name: spanStatsArr, StartNs: t1, EndNs: t2},
				{Name: spanArrive, StartNs: t2, EndNs: t3},
				{Name: spanStep, StartNs: t3, EndNs: t4},
				{Name: spanStats, StartNs: t4, EndNs: t5},
			}}
			if arb != nil && arb.lastStart >= t3 {
				ss.Spans = append(ss.Spans, span{Name: spanMatch, Parent: spanStep, StartNs: arb.lastStart, EndNs: arb.last})
			}
			for i, nd := range nodes {
				i := i
				ss.Spans = append(ss.Spans, span{Name: spanNodeStep, Parent: spanStep, Node: &i, StartNs: nd.lastStart, EndNs: nd.lastEnd})
			}
			tot.sampled = append(tot.sampled, ss)
		}

		if sw.BufferedCells() > unstableLimit {
			unstable, unstableA = true, slot
			slot++
			break
		}
	}
	tot.wallNs = nowNs() - wallStart
	tot.slots = slot

	if !unstable {
		driftLimit := int64(50 * n)
		if rel := slot * int64(n) / 100; rel > driftLimit {
			driftLimit = rel
		}
		if sw.BufferedCells() > driftLimit {
			unstable, unstableA = true, slot
		}
	}
	tracker.FlushDeferred()

	if arb != nil {
		tot.matchNs, tot.matchCalls = arb.ns, arb.calls
	}
	for _, nd := range nodes {
		tot.nodeStepNs += nd.stepNs
		tot.nodeArriveNs += nd.arriveNs
		tot.matchNs += nd.arb.ns
		tot.matchCalls += nd.arb.calls
	}

	finite := func(x float64) float64 {
		if math.IsNaN(x) {
			return 0
		}
		return x
	}
	completed := tracker.Completed()
	if fastEvery > 1 {
		completed *= fastEvery
	}
	rep := voqsim.Report{
		Scheduler:         voqsim.Scheduler(name),
		Traffic:           pat.String(),
		Ports:             n,
		Load:              pat.EffectiveLoad(n),
		Seed:              seed,
		Slots:             slot,
		WarmupSlots:       warmup,
		Unstable:          unstable,
		UnstableAt:        unstableA,
		AvgInputDelay:     finite(tracker.InputOriented().Mean()),
		AvgOutputDelay:    finite(tracker.OutputOriented().Mean()),
		AvgUnicastDelay:   finite(tracker.UnicastInputOriented().Mean()),
		AvgMulticastDelay: finite(tracker.MulticastInputOriented().Mean()),
		InputDelayP99:     tracker.InputHistogram().Quantile(0.99),
		AvgQueueSize:      finite(occ.Average()),
		MaxQueueSize:      occ.Maximum(),
		MeanRounds:        finite(rounds.Mean()),
		CompletedPackets:  completed,
		DeliveredCopies:   delivered,
		AvgBufferBytes:    finite(bytes.Mean()),
		PeakBufferBytes:   peak.Value(),
	}
	if measured := slot - warmup; measured > 0 {
		rep.Throughput = float64(delivered) / float64(measured) / float64(n)
	}
	if fab != nil {
		fs := fab.FabricStats()
		rep.Fabric = &voqsim.FabricReport{
			Topology: fs.Topology, Nodes: fs.Nodes, Links: fs.Links,
			AdmittedPackets: fs.AdmittedPackets, AdmittedCopies: fs.AdmittedCopies,
			DeliveredCopies: fs.DeliveredCopies, DroppedCopies: fs.DroppedCopies,
			DropsByHop: fs.DropsByHop, HopMean: fs.HopMean, HopMin: fs.HopMin, HopMax: fs.HopMax,
		}
		tot.pendingKnown = fab.ForEachPending(func(cell.PacketID, int) { tot.pending++ })
	}
	return rep, tot, nil
}

// traceFile is what a traced run writes to bench/out/trace-<name>.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Env      envInfo   `json:"env"`
	Layers   metricSet `json:"layers"`
	// Phases are the per-phase accumulators of the last traced
	// repetition: total time in every span of that name.
	Phases []phaseRow `json:"phases"`
	// Sampled holds every span of one slot in sampleEvery.
	SampleEvery int           `json:"sample_every"`
	Sampled     []sampledSlot `json:"sampled_slots"`
	Untraced    []string      `json:"untraced,omitempty"`
}

type phaseRow struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

func (t phaseTotals) rows() []phaseRow {
	rows := []phaseRow{
		{Name: "construct", Count: 1, TotalNs: t.constructNs},
		{Name: spanDraw, Count: t.slots, TotalNs: t.drawNs},
		{Name: "stats", Count: 2 * t.slots, TotalNs: t.statsNs},
		{Name: spanArrive, Count: t.slots, TotalNs: t.arriveNs},
		{Name: spanStep, Count: t.slots, TotalNs: t.stepNs},
		{Name: spanMatch, Parent: spanStep, Count: t.matchCalls, TotalNs: t.matchNs},
	}
	if t.nodeStepNs > 0 {
		rows = append(rows,
			phaseRow{Name: spanNodeStep, Parent: spanStep, TotalNs: t.nodeStepNs},
			phaseRow{Name: "node.arrive", Parent: "switch.arrive|switch.step", TotalNs: t.nodeArriveNs})
	}
	return rows
}

// tracedPass is the traced half of a switch or fabric run: traced
// repetitions for the spans, one counting repetition with an observer
// for the exact counts, and on a fabric one repetition with the
// wrapped nodes stepped by two workers.
func tracedPass(w workloadSpec, opt runOptions, res *result, cal *calibrator, untracedNsPerSlot float64, par2 bool) error {
	check := func(what string, rep voqsim.Report) {
		var err error
		if got := reportDigest(rep); got != res.Digest {
			err = fmt.Errorf("%s digest %s differs from the untraced run's %s", what, got, res.Digest)
		}
		res.op(1, err)
	}

	var reps []phaseTotals
	start := time.Now()
	for len(reps) < 2 || time.Since(start).Seconds() < opt.seconds/2 {
		var rep voqsim.Report
		var tot phaseTotals
		var err error
		cleanHeap()
		_, factor := cal.timed(func() { rep, tot, err = tracedSim(w, opt.seed, 0, nil) })
		if err != nil {
			return fmt.Errorf("traced repetition: %w", err)
		}
		check("traced driver", rep)
		tot.factor = factor
		reps = append(reps, tot)
	}
	// Span times are in calibrated host time, like the untraced
	// repetitions they are compared with.
	perSlot := func(f func(phaseTotals) int64) float64 {
		return sampleOf(reps, func(t phaseTotals) float64 { return float64(f(t)) / float64(t.slots) / t.factor }).Median
	}
	n := len(reps)
	fabricRun := w.Kind == kindFabric
	m := res.Metrics
	m.set("traffic.draw_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.drawNs }), n)
	m.set("stats.record_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.statsNs }), n)
	m.set("core.match_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.matchNs }), n)
	if fabricRun {
		m.set("core.arrive_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.nodeArriveNs }), n)
		m.set("core.transfer_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.nodeStepNs - t.matchNs }), n)
		m.set("fabric.node_step_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.nodeStepNs }), n)
		m.set("fabric.overhead_ns_per_slot", perSlot(func(t phaseTotals) int64 {
			return t.arriveNs + t.stepNs - t.nodeStepNs - t.nodeArriveNs
		}), n)
	} else {
		m.set("core.arrive_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.arriveNs }), n)
		m.set("core.transfer_ns_per_slot", perSlot(func(t phaseTotals) int64 { return t.stepNs - t.matchNs }), n)
	}
	// Overhead compares like with like: voqsim.Run pays construction
	// too. Unattributed is slot-loop time that lies in no span.
	tracedNsPerSlot := perSlot(func(t phaseTotals) int64 { return t.constructNs + t.wallNs })
	m.set("trace.overhead_frac", (tracedNsPerSlot-untracedNsPerSlot)/untracedNsPerSlot, n)
	m.set("trace.unattributed_frac", perSlot(func(t phaseTotals) int64 {
		return t.wallNs - t.drawNs - t.statsNs - t.arriveNs - t.stepNs
	})/perSlot(func(t phaseTotals) int64 { return t.wallNs }), n)

	// Exact counts: same driver, observer attached, no timing read.
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	rep, tot, err := tracedSim(w, opt.seed, 0, o)
	if err != nil {
		return fmt.Errorf("counting repetition: %w", err)
	}
	check("counting repetition", rep)
	count := func(name string) float64 { return float64(o.Metrics.Counter(name).Value()) }
	slots := float64(tot.slots)
	m.set("traffic.arrivals_per_slot", float64(tot.arrivals)/slots, 1)
	m.set("core.copies_enqueued_per_slot", count(obs.MetricEnqueues)/slots, 1)
	m.set("core.copies_delivered_per_slot", count(obs.MetricDepartures)/slots, 1)
	m.set("core.splits_per_slot", count(obs.MetricSplits)/slots, 1)
	if a := count(obs.MetricActiveSlots); a > 0 {
		m.set("core.rounds_per_busy_slot", count(obs.MetricRounds)/a, 1)
	}
	if r := count(obs.MetricRequests); r > 0 {
		m.set("core.grants_per_request", count(obs.MetricGrants)/r, 1)
	}
	if e := count(obs.MetricEnqueues); e > 0 {
		m.set("core.arrive_ns_per_copy", m["core.arrive_ns_per_slot"].Value*slots/e, n)
	}
	if r := count(obs.MetricRounds); r > 0 {
		m.set("core.match_ns_per_round", m["core.match_ns_per_slot"].Value*slots/r, n)
	}
	if fabricRun {
		m.set("fabric.copies_per_slot", float64(tot.fabricDelivered)/slots, 1)
		m.set("fabric.hop_mean", rep.Fabric.HopMean, 1)
		m.set("fabric.link_drops", float64(rep.Fabric.DroppedCopies), 1)
		var err error
		if f := rep.Fabric; tot.pendingKnown && f.AdmittedCopies != f.DeliveredCopies+f.DroppedCopies+tot.pending {
			err = fmt.Errorf("fabric copies do not add up: admitted %d != delivered %d + dropped %d + buffered %d",
				f.AdmittedCopies, f.DeliveredCopies, f.DroppedCopies, tot.pending)
		}
		res.op(1, err)
	}

	if fabricRun && par2 {
		rep, ptot, err := tracedSim(w, opt.seed, 2, nil) // a ratio of two times of one repetition: no calibration
		if err != nil {
			return fmt.Errorf("traced Parallel: 2 repetition: %w", err)
		}
		check("traced driver with Parallel: 2", rep)
		m.set("fabric.node_busy_frac_par2", float64(ptot.nodeStepNs)/(2*float64(ptot.wallNs)), 1)
	}

	res.Untraced = append(res.Untraced,
		"crossbar: crossbar.Apply runs inside Switch.Step with no call of its own to time; it is part of core.transfer_ns_per_slot",
		"switchsim.Runner driver loop: the traced pass replaces it, so its own cost shows only as switchsim.run_ns_per_slot minus the spans")
	if fabricRun {
		res.Untraced = append(res.Untraced,
			"fabric barrier wait: the worker pool's wake-up and WaitGroup are inside Fabric.Step; with Parallel: 2 they are wall time not covered by fabric.node_busy_frac_par2")
	}

	last := reps[len(reps)-1]
	return writeTrace(opt.outDir, traceFile{
		Workload: w.Name, Seed: opt.seed, Env: res.Env, Layers: layerMetrics(res.Metrics),
		Phases: last.rows(), SampleEvery: sampleEvery, Sampled: last.sampled, Untraced: res.Untraced,
	})
}
