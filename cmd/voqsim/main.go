// Command voqsim runs a single switch simulation and prints the
// paper's statistics for it.
//
// Usage:
//
//	voqsim [flags]
//
//	-algo fifoms        scheduler: fifoms, tatra, islip, oqfifo, pim,
//	                    2drr, wba, lqfms, eslip, fifoms-nosplit,
//	                    fifoms-rK (K = round cap), cioq-sK (K = speedup)
//	-n 16               switch size
//	-topology SPEC      run a multi-stage fabric instead of a single
//	                    switch: every node is an instance of -algo and
//	                    packets travel end to end through multicast
//	                    trees over bounded inter-stage links. Specs:
//	                    fattree:k=K (K even) and clos:n=N,m=M,r=R.
//	                    -n defaults to the fabric's external port count
//	-traffic bernoulli  bernoulli | uniform | burst | mixed | hotspot |
//	                    diagonal — the traffic flags are one set, shared
//	                    with voqsweep, voqtrace record and voqload
//	                    (internal/traffic.RegisterFlags)
//	-load 0.8           target effective load (solves the free parameter)
//	-b 0.2              per-output probability (bernoulli, burst)
//	-maxfanout 8        fanout bound (uniform, mixed)
//	-eon 16             mean burst length (burst)
//	-mcfrac 0.5         multicast fraction (mixed)
//	-skew 4             hot/cold load ratio (hotspot)
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
//	                    default, but not bit-comparable. A fast run cannot
//	                    be snapshotted: the engine refuses -checkpoint and
//	                    -resume before simulating. Every architecture can.
//	-checkpoint FILE    atomically save a resume snapshot to FILE during the run
//	-checkpoint-every K snapshot cadence in slots (default slots/10 with -checkpoint)
//	-resume FILE        resume a run from a snapshot written by -checkpoint
//	-json               print the full report as JSON
//	-series FILE        write a per-slot backlog time series CSV
//	-trace FILE         write a slot-level event trace (JSONL) of the run
//	-metrics-every K    print a metrics snapshot to stderr every K slots
//	-check              run under the invariant checker (DESIGN.md §9)
//	-cpuprofile FILE    write a CPU profile of the run (go tool pprof)
//	-memprofile FILE    write a heap profile at exit
//
// The invocation is simulated once. -series, -trace, -metrics-every,
// -check and -checkpoint all attach to the one run the report comes
// from: none of them draws randomness, and the checker hands the
// events it has verified on to the tracer, so each output is what a
// run with that flag alone writes. Every architecture and fabric can
// be traced and metered. Feed the JSONL trace to voqtrace timeline /
// voqtrace explain.
//
// A resumed run is bit-identical to one that was never interrupted:
// same flags + the snapshot file reproduce the original report exactly
// (the snapshot's identity header rejects mismatched flags). The
// attachments see the slots this process simulates: under -resume the
// series, the trace and the metrics start at the snapshot's slot, and
// the check: line counts the slots checked from there.
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

	"voqsim"
	"voqsim/internal/check"
	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/report"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
)

func main() {
	if code := run(); code != 0 {
		os.Exit(code)
	}
}

// fail reports err and returns the exit code of a failed run.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "voqsim: %v\n", err)
	return 1
}

func run() int {
	var (
		algoName  = flag.String("algo", "fifoms", "scheduling algorithm")
		n         = flag.Int("n", 16, "switch size N")
		topology  = flag.String("topology", "", "multi-stage fabric spec: fattree:k=K | clos:n=N,m=M,r=R (empty: single switch)")
		spec      = traffic.RegisterFlags(flag.CommandLine)
		load      = flag.Float64("load", 0.8, "target effective load per output")
		slots     = flag.Int64("slots", 200_000, "simulated slots")
		seed      = flag.Uint64("seed", 1, "run seed")
		parallel  = flag.Int("parallel", 0, "fabric worker goroutines (requires -topology; results are byte-identical to sequential)")
		fast      = flag.Bool("fast", false, "relaxed-identity fast mode: O(1) traffic sampling and batched statistics")
		ckptPath  = flag.String("checkpoint", "", "atomically save a resume snapshot to this file during the run")
		ckptEvery = flag.Int64("checkpoint-every", 0, "snapshot cadence in slots (default slots/10 with -checkpoint)")
		resumePth = flag.String("resume", "", "resume the run from this snapshot file (same flags as the original run)")
		asJSON    = flag.Bool("json", false, "print the report as JSON")
		seriesOut = flag.String("series", "", "also write a per-slot backlog time series CSV to this file")
		traceOut  = flag.String("trace", "", "also write a slot-level event trace (JSONL) to this file")
		metricsK  = flag.Int64("metrics-every", 0, "print a metrics snapshot (JSONL) to stderr every K slots")
		checkRun  = flag.Bool("check", false, "run under the runtime invariant checker and report its verdict")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if err := spec.Validate(); err != nil {
		fail(err)
		return 2
	}

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf, os.Stderr)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	// With a topology, -n defaults to the fabric's external port count;
	// an explicit -n must match it (Resolve verifies).
	ports := *n
	if *topology != "" {
		ports = 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				ports = *n
			}
		})
	}
	algo, ports, err := experiment.Resolve(*algoName, *topology, ports, *parallel)
	if err != nil {
		return fail(err)
	}
	pat, err := spec.AtLoad(*load, ports)
	if err != nil {
		return fail(err)
	}
	// One run at a time: a CPU the switch does not use draws the traffic
	// ahead (DESIGN.md §17).
	cfg := switchsim.Config{Slots: *slots, Seed: *seed, Fast: *fast, DrawAhead: switchsim.SpareCPU(*parallel)}
	runner, ck, release := experiment.RunSeeding.NewRunner(algo, ports, pat, cfg, *checkRun)
	defer release()

	// Attachments, all on the one runner and all before it runs, so one
	// the run cannot honour is refused before simulating.
	var series *switchsim.SeriesRecorder
	if *seriesOut != "" {
		series = switchsim.NewSeriesRecorder(*slots / 2000)
		runner.Observe(series)
	}
	var o *obs.Observer
	if *traceOut != "" || *metricsK > 0 {
		o = &obs.Observer{}
		if *traceOut != "" {
			o.Trace = obs.NewTracer(obs.DefaultTracerCap)
		}
		if *metricsK > 0 {
			o.Metrics = obs.NewRegistry()
		}
		runner.Instrument(o)
	}
	if *resumePth != "" {
		blob, err := os.ReadFile(*resumePth)
		if err != nil {
			return fail(err)
		}
		if err := runner.Restore(algo.Name, blob); err != nil {
			return fail(err)
		}
	}
	var every int64
	var sink switchsim.CheckpointFunc
	if *ckptPath != "" {
		if every = *ckptEvery; every <= 0 {
			every = max(*slots/10, 1)
		}
		// Keep ckptPath at the latest snapshot, replaced atomically, so
		// a killed run can be picked up with -resume.
		sink = func(_ int64, blob []byte) error { return experiment.WriteFileAtomic(*ckptPath, blob) }
	}

	// The event trace streams to its file as JSONL while the run goes;
	// every -metrics-every slots a registry snapshot goes to stderr as
	// one JSON line, plus a final one at the end of the run.
	var traceFile *os.File
	var traceBuf *bufio.Writer
	var emitted int64
	if o.TraceOn() {
		if traceFile, err = os.Create(*traceOut); err != nil {
			return fail(err)
		}
		defer traceFile.Close()
		traceBuf = bufio.NewWriter(traceFile)
		write := report.EventSink(traceBuf)
		o.Trace.OnFull(func(events []obs.Event) error {
			emitted += int64(len(events))
			return write(events)
		})
	}
	lastSnapshotSlot := int64(-1)
	if o.MetricsOn() {
		runner.OnMetricsEvery(*metricsK, func(slot int64, metrics []obs.Metric) {
			lastSnapshotSlot = slot
			if err := report.WriteMetricsJSONL(os.Stderr, slot, metrics); err != nil {
				fmt.Fprintf(os.Stderr, "voqsim: metrics snapshot: %v\n", err)
			}
		})
	}

	res, err := runner.RunWithCheckpoints(algo.Name, every, sink)
	if err != nil {
		return fail(err)
	}

	if series != nil {
		f, err := os.Create(*seriesOut)
		if err != nil {
			return fail(err)
		}
		if err := series.WriteCSV(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("series:               %s (%d points)\n", *seriesOut, series.Len())
	}
	if o.MetricsOn() && res.Slots-1 != lastSnapshotSlot {
		if err := report.WriteMetricsJSONL(os.Stderr, res.Slots-1, o.Metrics.Snapshot()); err != nil {
			return fail(fmt.Errorf("metrics snapshot: %w", err))
		}
	}
	if o.TraceOn() {
		err := o.Trace.Flush()
		if err == nil {
			err = traceBuf.Flush()
		}
		if err == nil {
			err = traceFile.Close()
		}
		if err != nil {
			return fail(fmt.Errorf("writing trace: %w", err))
		}
		fmt.Printf("trace:                %s (%d events)\n", *traceOut, emitted)
	}
	if ck != nil {
		if ck.Err() != nil {
			for _, v := range ck.Violations() {
				fmt.Fprintf(os.Stderr, "voqsim: check: %s\n", v)
			}
			return fail(fmt.Errorf("invariant check failed: %d violations (profile %s)", ck.Total(), ck.Profile()))
		}
		// In -json mode the verdict goes to stderr so stdout stays a
		// single machine-parseable document.
		verdictTo := io.Writer(os.Stdout)
		if *asJSON {
			verdictTo = os.Stderr
		}
		fmt.Fprintf(verdictTo, "check:                ok (profile %s, %d invariants, %d slots)\n",
			ck.Profile(), check.NumInvariants, ck.Slots())
	}

	rep := voqsim.ToReport(res)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail(err)
		}
		return 0
	}
	printReport(rep)
	return 0
}

func printReport(r voqsim.Report) {
	fmt.Printf("algorithm:            %s\n", r.Scheduler)
	fmt.Printf("traffic:              %s\n", r.Traffic)
	fmt.Printf("switch:               %dx%d\n", r.Ports, r.Ports)
	fmt.Printf("effective load:       %.4f\n", r.Load)
	fmt.Printf("slots (warmup):       %d (%d)\n", r.Slots, r.WarmupSlots)
	if r.Unstable {
		fmt.Printf("stability:            UNSTABLE at slot %d — offered load not sustainable\n", r.UnstableAt)
	} else {
		fmt.Printf("stability:            stable\n")
	}
	fmt.Printf("avg input delay:      %.3f slots\n", r.AvgInputDelay)
	fmt.Printf("avg output delay:     %.3f slots\n", r.AvgOutputDelay)
	fmt.Printf("input delay p99:      <= %d slots\n", r.InputDelayP99)
	fmt.Printf("avg queue size:       %.3f cells/port\n", r.AvgQueueSize)
	fmt.Printf("max queue size:       %d cells\n", r.MaxQueueSize)
	if r.MeanRounds > 0 {
		fmt.Printf("mean rounds/slot:     %.3f\n", r.MeanRounds)
	}
	fmt.Printf("throughput:           %.4f copies/output/slot\n", r.Throughput)
	fmt.Printf("completed packets:    %d\n", r.CompletedPackets)
	fmt.Printf("delivered copies:     %d\n", r.DeliveredCopies)
	if f := r.Fabric; f != nil {
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
