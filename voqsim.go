// Package voqsim reproduces "FIFO Based Multicast Scheduling Algorithm
// for VOQ Packet Switches" (Deng Pan and Yuanyuan Yang, ICPP 2004): a
// discrete-time simulator for multicast crossbar packet switches built
// around the paper's two contributions — the multicast VOQ queue
// structure that stores a packet's payload once (data cells) and its
// destinations as per-output place holders (address cells), and the
// FIFOMS scheduler that matches inputs to outputs by smallest arrival
// time stamp.
//
// The package is a facade over the internal substrates (traffic
// models, switch architectures, the simulation engine and the
// experiment harness). Typical use:
//
//	report, err := voqsim.Run(voqsim.Config{
//		Ports:     16,
//		Scheduler: voqsim.FIFOMS,
//		Traffic:   voqsim.BernoulliTraffic(0.5, 0.2),
//		Slots:     200_000,
//		Seed:      1,
//	})
//
// Compare runs several schedulers under identical traffic, and Figure
// regenerates any of the paper's evaluation figures. The cmd/
// directory wraps the same entry points as command-line tools, and
// examples/ holds runnable scenarios.
package voqsim

import (
	"fmt"
	"sort"

	"voqsim/internal/experiment"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
)

// Scheduler names a scheduling algorithm together with the switch
// architecture it runs on.
type Scheduler string

// The available schedulers.
const (
	// FIFOMS is the paper's algorithm on the multicast VOQ structure.
	FIFOMS Scheduler = "fifoms"
	// TATRA is the Tetris-based multicast baseline on a
	// single-input-queued switch.
	TATRA Scheduler = "tatra"
	// ISLIP is the round-robin unicast VOQ baseline; multicast packets
	// are expanded into independent unicast copies.
	ISLIP Scheduler = "islip"
	// OQFIFO is the output-queued benchmark (needs speedup N).
	OQFIFO Scheduler = "oqfifo"
	// PIM is the randomised unicast VOQ baseline.
	PIM Scheduler = "pim"
	// TDRR is the two-dimensional round-robin unicast VOQ baseline.
	TDRR Scheduler = "2drr"
	// WBA is the age-weighted multicast baseline on a
	// single-input-queued switch.
	WBA Scheduler = "wba"
	// LQFMS replaces FIFOMS's time-stamp criterion with VOQ backlog on
	// the same multicast VOQ structure (design-alternative ablation).
	LQFMS Scheduler = "lqfms"
	// ESLIP is the industrial combined unicast/multicast scheduler
	// (unicast VOQs plus one multicast queue, shared multicast pointer).
	ESLIP Scheduler = "eslip"
	// FIFOMSNoSplit is FIFOMS without fanout splitting (ablation).
	FIFOMSNoSplit Scheduler = "fifoms-nosplit"
)

// Schedulers returns every available scheduler name, sorted.
func Schedulers() []Scheduler {
	out := make([]Scheduler, 0)
	for _, a := range experiment.AllAlgorithms() {
		out = append(out, Scheduler(a.Name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Traffic is an arrival process specification. Construct with one of
// the XxxTraffic / XxxTrafficAtLoad functions.
type Traffic struct {
	pattern traffic.Pattern
	atLoad  func(n int) (traffic.Pattern, error)
}

func (t Traffic) resolve(n int) (traffic.Pattern, error) {
	if t.atLoad != nil {
		return t.atLoad(n)
	}
	if t.pattern == nil {
		return nil, fmt.Errorf("voqsim: empty Traffic; use a constructor")
	}
	return t.pattern, nil
}

// EffectiveLoad returns the offered load per output of an n-port
// switch under this traffic, using the paper's load formulas.
func (t Traffic) EffectiveLoad(n int) (float64, error) {
	pat, err := t.resolve(n)
	if err != nil {
		return 0, err
	}
	return pat.EffectiveLoad(n), nil
}

// String describes the traffic; for at-load specs the description is
// resolved against a 16-port switch.
func (t Traffic) String() string {
	pat, err := t.resolve(16)
	if err != nil {
		return "traffic(unspecified)"
	}
	return pat.String()
}

// BernoulliTraffic is the paper's Bernoulli multicast traffic: an
// arrival with probability p per slot, each output addressed
// independently with probability b (Section V.A).
func BernoulliTraffic(p, b float64) Traffic {
	return Traffic{pattern: traffic.Bernoulli{P: p, B: b}}
}

// BernoulliTrafficAtLoad fixes b and solves p so the effective load is
// load.
func BernoulliTrafficAtLoad(load, b float64) Traffic {
	return Traffic{atLoad: func(n int) (traffic.Pattern, error) {
		return traffic.BernoulliAtLoad(load, b, n)
	}}
}

// UniformTraffic is the paper's uniform traffic: arrival probability
// p, fanout uniform on {1..maxFanout} (Section V.B). maxFanout = 1 is
// pure unicast.
func UniformTraffic(p float64, maxFanout int) Traffic {
	return Traffic{pattern: traffic.Uniform{P: p, MaxFanout: maxFanout}}
}

// UniformTrafficAtLoad fixes maxFanout and solves p for the load.
func UniformTrafficAtLoad(load float64, maxFanout int) Traffic {
	return Traffic{atLoad: func(n int) (traffic.Pattern, error) {
		return traffic.UniformAtLoad(load, maxFanout, n)
	}}
}

// BurstTraffic is the paper's bursty on/off traffic with mean state
// lengths eOff and eOn and per-output probability b (Section V.C).
func BurstTraffic(eOff, eOn, b float64) Traffic {
	return Traffic{pattern: traffic.Burst{EOff: eOff, EOn: eOn, B: b}}
}

// BurstTrafficAtLoad fixes b and eOn and solves eOff for the load.
func BurstTrafficAtLoad(load, b, eOn float64) Traffic {
	return Traffic{atLoad: func(n int) (traffic.Pattern, error) {
		return traffic.BurstAtLoad(load, b, eOn, n)
	}}
}

// MixedTraffic mixes unicast and multicast arrivals: arrival
// probability p, a multicastFrac share of arrivals having fanout
// uniform on {2..maxFanout} and the rest a single destination.
func MixedTraffic(p, multicastFrac float64, maxFanout int) Traffic {
	return Traffic{pattern: traffic.Mixed{P: p, MulticastFrac: multicastFrac, MaxFanout: maxFanout}}
}

// HotspotTraffic is non-uniform multicast traffic with one
// over-subscribed output: arrivals include output hotOut with
// probability bHot and every other output with probability bCold.
func HotspotTraffic(p, bHot, bCold float64, hotOut int) Traffic {
	return Traffic{pattern: traffic.Hotspot{P: p, BHot: bHot, BCold: bCold, HotOut: hotOut}}
}

// HotspotTrafficAtLoad fixes the hot/cold skew ratio (>= 1) and solves
// the parameters so the hot output carries the given load.
func HotspotTrafficAtLoad(load, skew float64) Traffic {
	return Traffic{atLoad: func(n int) (traffic.Pattern, error) {
		return traffic.HotspotAtLoad(load, skew, n)
	}}
}

// DiagonalTraffic is the classic non-uniform unicast pattern: input i
// sends 2/3 of its packets to output i and 1/3 to output (i+1) mod N,
// at per-output load p.
func DiagonalTraffic(p float64) Traffic {
	return Traffic{pattern: traffic.Diagonal{P: p}}
}

// Config describes one simulation run.
type Config struct {
	// Ports is the switch size N (inputs and outputs). With a Topology
	// it is the fabric's external port count and may be left zero to
	// derive it from the topology.
	Ports int
	// Scheduler selects the algorithm and architecture.
	Scheduler Scheduler
	// Topology, when non-empty, runs a multi-stage fabric instead of a
	// single switch: every node of the topology is an instance of
	// Scheduler's switch, and packets are delivered end to end through
	// multicast trees over bounded inter-stage links. Specs:
	// "fattree:k=K" (k-ary fat tree, K even) and "clos:n=N,m=M,r=R"
	// (3-stage Clos). Empty means a single switch.
	Topology string
	// Traffic is the arrival process.
	Traffic Traffic
	// Slots is the simulated duration; zero means 200 000 slots. The
	// paper's runs use 1 000 000.
	Slots int64
	// Seed makes the run reproducible; runs with equal Config are
	// bit-identical.
	Seed uint64
	// WarmupFrac is the fraction of slots excluded from statistics
	// (zero means the paper's one half; negative means none).
	WarmupFrac float64
	// Fast trades bit-exact reproducibility for raw speed: traffic is
	// drawn with O(1) alias/Floyd/geometric samplers and statistics
	// accumulate in batches (DESIGN.md §12). A fast run samples the
	// same stochastic model, so its delay and throughput estimates
	// agree with the default path up to sampling error, but the run
	// is not bit-comparable, and checkpoint/resume is unavailable.
	Fast bool
	// Parallel steps the fabric's nodes on that many worker goroutines
	// within each slot (DESIGN.md §16). Requires a Topology — a single
	// switch has no intra-slot parallelism to exploit. Unlike Fast,
	// Parallel never changes results: the report, every delivery and
	// every checkpoint blob are byte-identical to a sequential run.
	// 0 and 1 mean sequential.
	Parallel int
}

// Report is the outcome of one run: the four statistics of the paper's
// Section V plus convergence rounds, throughput and accounting.
type Report struct {
	Scheduler Scheduler
	Traffic   string
	Ports     int
	Load      float64 // analytic effective load per output
	Seed      uint64

	Slots       int64
	WarmupSlots int64
	Unstable    bool  // the offered load could not be sustained
	UnstableAt  int64 // slot at which instability was detected

	AvgInputDelay  float64 // mean delay of a packet's last copy (slots)
	AvgOutputDelay float64 // mean per-copy delay (slots)

	// Per-class input-oriented delay for fairness analysis: unicast
	// packets (fanout 1) vs multicast packets (fanout >= 2). Zero when
	// the class saw no completed packets.
	AvgUnicastDelay   float64
	AvgMulticastDelay float64
	InputDelayP99     int64   // upper bound on the 99th percentile input delay
	AvgQueueSize      float64 // mean per-port buffer occupancy (cells)
	MaxQueueSize      int64   // largest per-port occupancy observed
	MeanRounds        float64 // mean scheduler iterations per busy slot (0 for non-iterative)
	Throughput        float64 // delivered copies per output per slot

	CompletedPackets int64
	DeliveredCopies  int64

	// Buffer memory accounting (Section IV.B), zero for architectures
	// that do not report it: mean bytes per port and peak total bytes.
	AvgBufferBytes  float64
	PeakBufferBytes int64

	// Fabric summarises the multi-stage run; nil for single switches.
	Fabric *FabricReport
}

// FabricReport is the fabric-level outcome of a Topology run: identity
// of the wiring plus end-to-end copy accounting and hop-count
// statistics (a copy's hop count is the number of switches it
// traversed).
type FabricReport struct {
	Topology string // normalised spec, e.g. "fattree:k=4"
	Nodes    int
	Links    int

	AdmittedPackets int64
	AdmittedCopies  int64
	DeliveredCopies int64
	DroppedCopies   int64 // lost to full inter-stage links, counted per leaf
	DropsByHop      []int64

	HopMean float64
	HopMin  int64
	HopMax  int64
}

// ToReport renders the engine's Results as the facade's Report. It is
// exported for the module's own commands, which drive the engine runner
// directly (to attach recorders and the checker to it) and print this
// form.
func ToReport(r switchsim.Results) Report {
	var fr *FabricReport
	if r.Fabric != nil {
		fr = &FabricReport{
			Topology:        r.Fabric.Topology,
			Nodes:           r.Fabric.Nodes,
			Links:           r.Fabric.Links,
			AdmittedPackets: r.Fabric.AdmittedPackets,
			AdmittedCopies:  r.Fabric.AdmittedCopies,
			DeliveredCopies: r.Fabric.DeliveredCopies,
			DroppedCopies:   r.Fabric.DroppedCopies,
			DropsByHop:      r.Fabric.DropsByHop,
			HopMean:         r.Fabric.HopMean,
			HopMin:          r.Fabric.HopMin,
			HopMax:          r.Fabric.HopMax,
		}
	}
	return Report{
		Fabric:            fr,
		Scheduler:         Scheduler(r.Algorithm),
		Traffic:           r.Pattern,
		Ports:             r.Ports,
		Load:              r.Load,
		Seed:              r.Seed,
		Slots:             r.Slots,
		WarmupSlots:       r.WarmupSlots,
		Unstable:          r.Unstable,
		UnstableAt:        r.UnstableAt,
		AvgInputDelay:     r.InputDelay.Mean,
		AvgOutputDelay:    r.OutputDelay.Mean,
		AvgUnicastDelay:   r.UnicastInputDelay.Mean,
		AvgMulticastDelay: r.MulticastInputDelay.Mean,
		InputDelayP99:     r.InputDelayP99,
		AvgQueueSize:      r.AvgQueue,
		MaxQueueSize:      r.MaxQueue,
		MeanRounds:        r.Rounds.Mean,
		Throughput:        r.Throughput,
		CompletedPackets:  r.Completed,
		DeliveredCopies:   r.Delivered,
		AvgBufferBytes:    r.AvgBufferBytes,
		PeakBufferBytes:   r.PeakBufferBytes,
	}
}

// String renders the report's headline numbers on one line.
func (r Report) String() string {
	state := "stable"
	if r.Unstable {
		state = fmt.Sprintf("UNSTABLE@%d", r.UnstableAt)
	}
	return fmt.Sprintf("%s %s load=%.3f: inDelay=%.2f outDelay=%.2f avgQ=%.2f maxQ=%d thr=%.3f [%s]",
		r.Scheduler, r.Traffic, r.Load, r.AvgInputDelay, r.AvgOutputDelay,
		r.AvgQueueSize, r.MaxQueueSize, r.Throughput, state)
}

// buildRunner assembles the engine runner for cfg through the module's
// one run builder (internal/experiment, DESIGN.md "Run construction");
// release must be called when the run is over.
func buildRunner(cfg Config) (r *switchsim.Runner, name string, release func(), err error) {
	algo, n, err := experiment.Resolve(string(cfg.Scheduler), cfg.Topology, cfg.Ports, cfg.Parallel)
	if err != nil {
		return nil, "", nil, err
	}
	pat, err := cfg.Traffic.resolve(n)
	if err != nil {
		return nil, "", nil, err
	}
	engineCfg := switchsim.Config{Slots: cfg.Slots, Seed: cfg.Seed, WarmupFrac: cfg.WarmupFrac, Fast: cfg.Fast,
		// One run at a time: a CPU the switch does not use draws the
		// traffic ahead (DESIGN.md §17).
		DrawAhead: switchsim.SpareCPU(cfg.Parallel)}
	r, _, release = experiment.RunSeeding.NewRunner(algo, n, pat, engineCfg, false)
	return r, algo.Name, release, nil
}

// Run simulates one switch under one traffic pattern and returns its
// report. The run is fully determined by cfg.
func Run(cfg Config) (Report, error) {
	runner, name, release, err := buildRunner(cfg)
	if err != nil {
		return Report{}, err
	}
	defer release()
	return ToReport(runner.Run(name)), nil
}

// CheckpointFunc receives each periodic snapshot of a resumable run:
// blob restores a run that continues at nextSlot. A non-nil error
// aborts the run.
type CheckpointFunc func(nextSlot int64, blob []byte) error

// RunResumable is Run with the engine's checkpoint protocol attached
// (DESIGN.md §10). When resumeFrom is non-nil the run restores that
// snapshot — which must have been taken under an identical cfg — and
// continues from the checkpointed slot; the report is bit-identical to
// a run that was never interrupted. When every > 0, sink receives a
// self-contained snapshot of the simulation state after each block of
// `every` slots. Every scheduler can be snapshotted; Fast cannot, and
// the engine refuses it before it simulates a slot.
func RunResumable(cfg Config, resumeFrom []byte, every int64, sink CheckpointFunc) (Report, error) {
	runner, name, release, err := buildRunner(cfg)
	if err != nil {
		return Report{}, err
	}
	defer release()
	if resumeFrom != nil {
		if err := runner.Restore(name, resumeFrom); err != nil {
			return Report{}, err
		}
	}
	res, err := runner.RunWithCheckpoints(name, every, switchsim.CheckpointFunc(sink))
	if err != nil {
		return Report{}, err
	}
	return ToReport(res), nil
}

// Compare runs every scheduler under an identical configuration (same
// traffic family and seed) and returns the reports in the given order.
func Compare(cfg Config, schedulers ...Scheduler) ([]Report, error) {
	if len(schedulers) == 0 {
		return nil, fmt.Errorf("voqsim: Compare needs at least one scheduler")
	}
	reports := make([]Report, 0, len(schedulers))
	for _, s := range schedulers {
		c := cfg
		c.Scheduler = s
		rep, err := Run(c)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
