// Command voqsim runs a single switch simulation and prints the
// paper's statistics for it.
//
// Usage:
//
//	voqsim [flags]
//
//	-algo fifoms        scheduler: fifoms, tatra, islip, oqfifo, pim,
//	                    wba, fifoms-nosplit, fifoms-rK (K = round cap)
//	-n 16               switch size
//	-topology SPEC      run a multi-stage fabric instead of a single
//	                    switch: every node is an instance of -algo and
//	                    packets travel end to end through multicast
//	                    trees over bounded inter-stage links. Specs:
//	                    fattree:k=K (K even) and clos:n=N,m=M,r=R.
//	                    -n defaults to the fabric's external port count
//	-traffic bernoulli  bernoulli | uniform | burst | mixed
//	-load 0.8           target effective load (solves the free parameter)
//	-b 0.2              per-output probability (bernoulli, burst)
//	-maxfanout 8        fanout bound (uniform, mixed)
//	-eon 16             mean burst length (burst)
//	-mcfrac 0.5         multicast fraction (mixed)
//	-slots 200000       simulated slots
//	-seed 1             run seed
//	-parallel W         step fabric nodes on W worker goroutines
//	                    (requires -topology). The parallel engine is
//	                    byte-identical to the sequential one, so every
//	                    other flag — -check, -checkpoint, -resume,
//	                    -trace — composes with it unchanged.
//	-fast               relaxed-identity fast mode: O(1) alias/Floyd/
//	                    geometric traffic sampling and batched statistics
//	                    (DESIGN.md §12); statistically equivalent to the
//	                    default, but not bit-comparable. Incompatible with
//	                    -check, -checkpoint and -resume.
//	-checkpoint FILE    atomically save a resume snapshot to FILE during the run
//	-checkpoint-every K snapshot cadence in slots (default slots/10 with -checkpoint)
//	-resume FILE        resume a run from a snapshot written by -checkpoint
//	-json               print the full report as JSON
//	-series FILE        write a per-slot backlog time series CSV
//	-trace FILE         write a slot-level event trace (JSONL) of the run
//	-metrics-every K    print a metrics snapshot to stderr every K slots
//	-check              re-run under the invariant checker (DESIGN.md §9)
//	-cpuprofile FILE    write a CPU profile of the run (go tool pprof)
//	-memprofile FILE    write a heap profile at exit
//
// -trace and -metrics-every re-run the identical simulation with the
// observability layer attached (the instrumentation draws no
// randomness, so the observed run is bit-identical); feed the JSONL
// trace to voqtrace timeline / voqtrace explain. Tracing and metrics
// are supported for the core VOQ schedulers (fifoms, islip, pim, 2drr,
// lqfms and variants) plus eslip and wba.
//
// A resumed run is bit-identical to one that was never interrupted:
// same flags + the snapshot file reproduce the original report exactly
// (the snapshot's identity header rejects mismatched flags).
//
// Example — the paper's Figure 4 operating point at load 0.8:
//
//	voqsim -algo fifoms -traffic bernoulli -b 0.2 -load 0.8
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"voqsim"
	"voqsim/internal/check"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/report"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func main() {
	var (
		algo      = flag.String("algo", "fifoms", "scheduling algorithm")
		n         = flag.Int("n", 16, "switch size N")
		topology  = flag.String("topology", "", "multi-stage fabric spec: fattree:k=K | clos:n=N,m=M,r=R (empty: single switch)")
		trafficK  = flag.String("traffic", "bernoulli", "traffic family: bernoulli|uniform|burst|mixed")
		load      = flag.Float64("load", 0.8, "target effective load per output")
		b         = flag.Float64("b", 0.2, "per-output destination probability (bernoulli, burst)")
		maxFanout = flag.Int("maxfanout", 8, "maximum fanout (uniform, mixed)")
		eOn       = flag.Float64("eon", 16, "mean burst length in slots (burst)")
		mcFrac    = flag.Float64("mcfrac", 0.5, "multicast fraction of arrivals (mixed)")
		slots     = flag.Int64("slots", 200_000, "simulated slots")
		seed      = flag.Uint64("seed", 1, "run seed")
		parallel  = flag.Int("parallel", 0, "fabric worker goroutines (requires -topology; results are byte-identical to sequential)")
		fast      = flag.Bool("fast", false, "relaxed-identity fast mode (no -check/-checkpoint/-resume)")
		ckptPath  = flag.String("checkpoint", "", "atomically save a resume snapshot to this file during the run")
		ckptEvery = flag.Int64("checkpoint-every", 0, "snapshot cadence in slots (default slots/10 with -checkpoint)")
		resumePth = flag.String("resume", "", "resume the run from this snapshot file (same flags as the original run)")
		asJSON    = flag.Bool("json", false, "print the report as JSON")
		seriesOut = flag.String("series", "", "also write a per-slot backlog time series CSV to this file")
		traceOut  = flag.String("trace", "", "also write a slot-level event trace (JSONL) to this file")
		metricsK  = flag.Int64("metrics-every", 0, "print a metrics snapshot (JSONL) to stderr every K slots")
		checkRun  = flag.Bool("check", false, "re-run under the runtime invariant checker and report its verdict")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *fast {
		switch {
		case *checkRun:
			fmt.Fprintln(os.Stderr, "voqsim: -fast is incompatible with -check: the invariant checker certifies the bit-exact path; validate fast mode statistically instead (TestFastModeEquivalence)")
			os.Exit(2)
		case *ckptPath != "" || *resumePth != "":
			fmt.Fprintln(os.Stderr, "voqsim: -fast is incompatible with -checkpoint/-resume: fast runs relax draw-order identity and cannot be snapshotted")
			os.Exit(2)
		}
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	var tr voqsim.Traffic
	switch *trafficK {
	case "bernoulli":
		tr = voqsim.BernoulliTrafficAtLoad(*load, *b)
	case "uniform":
		tr = voqsim.UniformTrafficAtLoad(*load, *maxFanout)
	case "burst":
		tr = voqsim.BurstTrafficAtLoad(*load, *b, *eOn)
	case "mixed":
		// Mixed has no at-load helper on the facade with fraction; use
		// the probability form: p = load / meanFanout.
		mean := *mcFrac*(2+float64(*maxFanout))/2 + (1 - *mcFrac)
		tr = voqsim.MixedTraffic(*load/mean, *mcFrac, *maxFanout)
	default:
		fmt.Fprintf(os.Stderr, "voqsim: unknown traffic family %q\n", *trafficK)
		os.Exit(2)
	}

	ports := *n
	if *topology != "" {
		// With a topology, -n defaults to the fabric's external port
		// count; an explicit -n must match it (the facade verifies).
		nSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				nSet = true
			}
		})
		if !nSet {
			ports = 0
		}
	}
	cfg := voqsim.Config{
		Ports:     ports,
		Scheduler: voqsim.Scheduler(*algo),
		Topology:  *topology,
		Traffic:   tr,
		Slots:     *slots,
		Seed:      *seed,
		Fast:      *fast,
		Parallel:  *parallel,
	}
	var report voqsim.Report
	if *ckptPath != "" || *resumePth != "" {
		report, err = runResumable(cfg, *ckptPath, *ckptEvery, *resumePth)
	} else {
		report, err = voqsim.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
		os.Exit(1)
	}

	if *seriesOut != "" {
		if err := writeSeries(*seriesOut, *algo, *topology, report.Ports, *slots, *seed, *fast, report.Load, *trafficK, *b, *maxFanout, *eOn, *mcFrac); err != nil {
			fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
			os.Exit(1)
		}
	}

	if *traceOut != "" || *metricsK > 0 {
		if err := runObserved(*traceOut, *metricsK, *algo, *topology, report.Ports, *slots, *seed, *fast, report.Load, *trafficK, *b, *maxFanout, *eOn, *mcFrac); err != nil {
			fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
			os.Exit(1)
		}
	}

	if *checkRun {
		// In -json mode the verdict goes to stderr so stdout stays a
		// single machine-parseable document.
		verdictTo := io.Writer(os.Stdout)
		if *asJSON {
			verdictTo = os.Stderr
		}
		if err := runChecked(verdictTo, *algo, *topology, report.Ports, *slots, *seed, report.Load, *trafficK, *b, *maxFanout, *eOn, *mcFrac); err != nil {
			fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("algorithm:            %s\n", report.Scheduler)
	fmt.Printf("traffic:              %s\n", report.Traffic)
	fmt.Printf("switch:               %dx%d\n", report.Ports, report.Ports)
	fmt.Printf("effective load:       %.4f\n", report.Load)
	fmt.Printf("slots (warmup):       %d (%d)\n", report.Slots, report.WarmupSlots)
	if report.Unstable {
		fmt.Printf("stability:            UNSTABLE at slot %d — offered load not sustainable\n", report.UnstableAt)
	} else {
		fmt.Printf("stability:            stable\n")
	}
	fmt.Printf("avg input delay:      %.3f slots\n", report.AvgInputDelay)
	fmt.Printf("avg output delay:     %.3f slots\n", report.AvgOutputDelay)
	fmt.Printf("input delay p99:      <= %d slots\n", report.InputDelayP99)
	fmt.Printf("avg queue size:       %.3f cells/port\n", report.AvgQueueSize)
	fmt.Printf("max queue size:       %d cells\n", report.MaxQueueSize)
	if report.MeanRounds > 0 {
		fmt.Printf("mean rounds/slot:     %.3f\n", report.MeanRounds)
	}
	fmt.Printf("throughput:           %.4f copies/output/slot\n", report.Throughput)
	fmt.Printf("completed packets:    %d\n", report.CompletedPackets)
	fmt.Printf("delivered copies:     %d\n", report.DeliveredCopies)
	if f := report.Fabric; f != nil {
		fmt.Printf("topology:             %s (%d switches, %d links)\n", f.Topology, f.Nodes, f.Links)
		fmt.Printf("fabric admitted:      %d packets, %d copies\n", f.AdmittedPackets, f.AdmittedCopies)
		fmt.Printf("fabric delivered:     %d copies\n", f.DeliveredCopies)
		fmt.Printf("fabric dropped:       %d copies\n", f.DroppedCopies)
		for h, c := range f.DropsByHop {
			if c > 0 {
				fmt.Printf("  dropped at hop %d:   %d\n", h, c)
			}
		}
		if f.DeliveredCopies > 0 {
			fmt.Printf("hops per copy:        mean %.3f, min %d, max %d\n", f.HopMean, f.HopMin, f.HopMax)
		}
	}
}

// runResumable is the checkpoint/resume path of the main run: it
// restores resumePath when given (continuing mid-run bit-identically),
// and keeps ckptPath updated with the latest snapshot so a killed run
// can be picked up with -resume.
func runResumable(cfg voqsim.Config, ckptPath string, every int64, resumePath string) (voqsim.Report, error) {
	var blob []byte
	if resumePath != "" {
		var err error
		blob, err = os.ReadFile(resumePath)
		if err != nil {
			return voqsim.Report{}, err
		}
	}
	var sink voqsim.CheckpointFunc
	if ckptPath != "" {
		if every <= 0 {
			every = cfg.Slots / 10
			if every <= 0 {
				every = 1
			}
		}
		sink = func(nextSlot int64, blob []byte) error {
			tmp := ckptPath + ".tmp"
			if err := os.WriteFile(tmp, blob, 0o644); err != nil {
				return err
			}
			return os.Rename(tmp, ckptPath)
		}
	} else {
		every = 0
	}
	return voqsim.RunResumable(cfg, blob, every, sink)
}

// startProfiles starts CPU profiling and/or arranges a heap profile,
// returning a stop function to run when the measured work is done.
// Either path may be empty. The heap profile is preceded by a GC so it
// shows live steady-state memory, not garbage awaiting collection.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// buildSim reconstructs the exact simulation the facade ran — same
// pattern, same seed derivation, same fast-mode setting — so a second
// pass can attach recorders, the observability layer or the invariant
// checker. The rerun is exact: the engine (fast or not) is
// deterministic in the seed.
func buildSim(algo, topology string, n int, slots int64, seed uint64, fast bool, load float64, family string, b float64, maxFanout int, eOn, mcFrac float64) (switchsim.Switch, traffic.Pattern, switchsim.Config, *xrand.Rand, error) {
	var pat traffic.Pattern
	var err error
	switch family {
	case "bernoulli":
		pat, err = traffic.BernoulliAtLoad(load, b, n)
	case "uniform":
		pat, err = traffic.UniformAtLoad(load, maxFanout, n)
	case "burst":
		pat, err = traffic.BurstAtLoad(load, b, eOn, n)
	case "mixed":
		pat, err = traffic.MixedAtLoad(load, mcFrac, maxFanout, n)
	default:
		err = fmt.Errorf("rerun not supported for traffic family %q", family)
	}
	if err != nil {
		return nil, nil, switchsim.Config{}, nil, err
	}
	a, err := experiment.ByName(algo)
	if err != nil {
		return nil, nil, switchsim.Config{}, nil, err
	}
	if topology != "" {
		top, err := fabric.ParseSpec(topology)
		if err != nil {
			return nil, nil, switchsim.Config{}, nil, err
		}
		if a, err = experiment.WithTopology(a, top, fabric.Config{}); err != nil {
			return nil, nil, switchsim.Config{}, nil, err
		}
	}
	seedRoot := xrand.New(seed)
	sw := a.New(n, seedRoot.Split("switch", 0))
	cfg := switchsim.Config{Slots: slots, Seed: seed, Fast: fast, DrawAhead: switchsim.SpareCPU(1)}
	return sw, pat, cfg, seedRoot.Split("traffic", 0), nil
}

// buildRunner is buildSim packaged as an engine Runner.
func buildRunner(algo, topology string, n int, slots int64, seed uint64, fast bool, load float64, family string, b float64, maxFanout int, eOn, mcFrac float64) (*switchsim.Runner, error) {
	sw, pat, cfg, trafficRoot, err := buildSim(algo, topology, n, slots, seed, fast, load, family, b, maxFanout, eOn, mcFrac)
	if err != nil {
		return nil, err
	}
	return switchsim.New(sw, pat, cfg, trafficRoot), nil
}

// runChecked re-runs the identical simulation wrapped in the runtime
// invariant checker (internal/check, DESIGN.md §9) and reports its
// verdict. The checker is passive — the checked rerun delivers
// bit-identically to the measured run — so a clean verdict certifies
// the run that was just reported.
func runChecked(verdictTo io.Writer, algo, topology string, n int, slots int64, seed uint64, load float64, family string, b float64, maxFanout int, eOn, mcFrac float64) error {
	sw, pat, cfg, trafficRoot, err := buildSim(algo, topology, n, slots, seed, false, load, family, b, maxFanout, eOn, mcFrac)
	if err != nil {
		return err
	}
	_, ck, err := switchsim.CheckedRun(algo, sw, pat, cfg, trafficRoot, check.Options{})
	if err != nil {
		for _, v := range ck.Violations() {
			fmt.Fprintf(os.Stderr, "voqsim: check: %s\n", v)
		}
		return fmt.Errorf("invariant check failed: %d violations (profile %s)", ck.Total(), ck.Profile())
	}
	fmt.Fprintf(verdictTo, "check:                ok (profile %s, %d invariants, %d slots)\n",
		ck.Profile(), check.NumInvariants, slots)
	return nil
}

// writeSeries re-runs the identical simulation with a series recorder
// attached and writes the per-slot backlog CSV.
func writeSeries(path, algo, topology string, n int, slots int64, seed uint64, fast bool, load float64, family string, b float64, maxFanout int, eOn, mcFrac float64) error {
	runner, err := buildRunner(algo, topology, n, slots, seed, fast, load, family, b, maxFanout, eOn, mcFrac)
	if err != nil {
		return err
	}
	stride := slots / 2000
	rec := switchsim.NewSeriesRecorder(stride)
	runner.Observe(rec)
	runner.Run(algo)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("series:               %s (%d points)\n", path, rec.Len())
	return nil
}

// runObserved re-runs the identical simulation with the observability
// layer attached (DESIGN.md §8): the event trace streams to tracePath
// as JSONL, and every metricsEvery slots a registry snapshot goes to
// stderr as one JSON line (plus a final snapshot at the end of the
// run).
func runObserved(tracePath string, metricsEvery int64, algo, topology string, n int, slots int64, seed uint64, fast bool, load float64, family string, b float64, maxFanout int, eOn, mcFrac float64) error {
	runner, err := buildRunner(algo, topology, n, slots, seed, fast, load, family, b, maxFanout, eOn, mcFrac)
	if err != nil {
		return err
	}

	o := &obs.Observer{}
	var traceFile *os.File
	var bw *bufio.Writer
	var emitted int64
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			return err
		}
		bw = bufio.NewWriter(traceFile)
		sink := report.EventSink(bw)
		tr := obs.NewTracer(obs.DefaultTracerCap)
		tr.OnFull(func(events []obs.Event) error {
			emitted += int64(len(events))
			return sink(events)
		})
		o.Trace = tr
	}
	if metricsEvery > 0 {
		o.Metrics = obs.NewRegistry()
	}
	if !runner.Instrument(o) {
		if traceFile != nil {
			traceFile.Close()
			os.Remove(tracePath)
		}
		return fmt.Errorf("algorithm %q does not support observability (core VOQ schedulers, eslip and wba do)", algo)
	}

	var lastSnapshotSlot int64 = -1
	if metricsEvery > 0 {
		runner.OnMetricsEvery(metricsEvery, func(slot int64, metrics []obs.Metric) {
			lastSnapshotSlot = slot
			if err := report.WriteMetricsJSONL(os.Stderr, slot, metrics); err != nil {
				fmt.Fprintf(os.Stderr, "voqsim: metrics snapshot: %v\n", err)
			}
		})
	}

	res := runner.Run(algo)

	if metricsEvery > 0 && res.Slots-1 != lastSnapshotSlot {
		if err := report.WriteMetricsJSONL(os.Stderr, res.Slots-1, o.Metrics.Snapshot()); err != nil {
			return fmt.Errorf("metrics snapshot: %w", err)
		}
	}
	if o.Trace != nil {
		flushErr := o.Trace.Flush()
		if err := bw.Flush(); flushErr == nil {
			flushErr = err
		}
		if err := traceFile.Close(); flushErr == nil {
			flushErr = err
		}
		if flushErr != nil {
			return fmt.Errorf("writing trace: %w", flushErr)
		}
		fmt.Printf("trace:                %s (%d events)\n", tracePath, emitted)
	}
	return nil
}
