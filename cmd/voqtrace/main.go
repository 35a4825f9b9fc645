// Command voqtrace records arrival traces and replays them through any
// scheduler, so different algorithms can be compared on *identical*
// arrival sequences (not just identically distributed ones) and
// externally captured workloads can be fed to the simulator.
//
// Usage:
//
//	voqtrace record [flags] > trace.jsonl
//	    -traffic bernoulli -load 0.8 -b 0.2 -n 16 -slots 100000 -seed 1
//	    (the traffic flags of cmd/voqsim: -traffic -b -maxfanout -eon
//	    -mcfrac -skew)
//
//	voqtrace run -algo fifoms [-check] < trace.jsonl
//	    replays the trace and prints the run's statistics; -check
//	    replays under the runtime invariant checker, which is how a
//	    voqd arrival transcript (voqd -record) is certified
//
//	voqtrace info < trace.jsonl
//	    prints the trace's measured load and fanout
//
// The timeline and explain subcommands consume slot-level *event*
// traces (voqsim -trace out.jsonl), not arrival traces. Both read the
// trace from a positional file argument, or from stdin when none is
// given:
//
//	voqtrace timeline [-from S] [-to S] [-in I] [-out O] [-ev TYPE] [events.jsonl]
//	    renders a per-slot timeline of arrivals, requests, grants,
//	    departures and fanout splits
//
//	voqtrace explain -in I -out J -slot S [events.jsonl]
//	    answers "why did input I not get output J in slot S" from the
//	    recorded requests, grants and HOL timestamps
package main

import (
	"flag"
	"fmt"
	"os"

	"voqsim/internal/experiment"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "record":
		err = record(args)
	case "run":
		err = run(args)
	case "info":
		err = info()
	case "timeline":
		err = timeline(args)
	case "explain":
		err = explain(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "voqtrace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: voqtrace record|run|info|timeline|explain [flags]")
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		spec  = traffic.RegisterFlags(fs)
		load  = fs.Float64("load", 0.8, "target effective load")
		n     = fs.Int("n", 16, "switch size")
		slots = fs.Int64("slots", 100_000, "slots to record")
		seed  = fs.Uint64("seed", 1, "seed")
	)
	fs.Parse(args)

	pat, err := spec.AtLoad(*load, *n)
	if err != nil {
		return err
	}
	tr := traffic.Record(pat, *n, *slots, xrand.New(*seed))
	return tr.Write(os.Stdout)
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		algo = fs.String("algo", "fifoms", "scheduling algorithm")
		seed = fs.Uint64("seed", 1, "switch-side seed (tie breaks)")
		chk  = fs.Bool("check", false, "replay under the runtime invariant checker (DESIGN.md §9); nonzero exit on violations")
	)
	fs.Parse(args)

	tr, err := traffic.ReadTrace(os.Stdin)
	if err != nil {
		return err
	}
	a, err := experiment.ByName(*algo)
	if err != nil {
		return err
	}
	// WarmupFrac -1 disables the warmup cut: a replayed trace is the
	// whole population (a daemon transcript's traffic may sit anywhere
	// in the slot range), so the reported statistics cover every
	// recorded arrival — the delay/throughput numbers are directly
	// comparable with the live daemon's own counters.
	cfg := switchsim.Config{Slots: tr.Slots, Seed: *seed, WarmupFrac: -1}
	// RunSeeding's switch substream is the one voqsim and voqd derive:
	// replaying a daemon's recorded arrival transcript with the daemon's
	// algo and seed reproduces the live delivery stream draw for draw,
	// and with -check certifies it against the full invariant catalogue
	// (docs/OPERATIONS.md). The replayed sources draw nothing.
	runner, ck, release := experiment.RunSeeding.NewRunner(a, tr.N, tr.Pattern(), cfg, *chk)
	defer release()
	fmt.Println(runner.Run(a.Name).Describe())
	if ck == nil {
		return nil
	}
	if err := ck.Err(); err != nil {
		for _, v := range ck.Violations() {
			fmt.Fprintf(os.Stderr, "violation: %v\n", v)
		}
		return err
	}
	fmt.Println("check: all invariants held")
	return nil
}

func info() error {
	tr, err := traffic.ReadTrace(os.Stdin)
	if err != nil {
		return err
	}
	fmt.Printf("ports:        %d\n", tr.N)
	fmt.Printf("slots:        %d\n", tr.Slots)
	fmt.Printf("arrivals:     %d\n", len(tr.Arrivals))
	fmt.Printf("load:         %.4f copies/output/slot\n", tr.MeasuredLoad())
	fmt.Printf("mean fanout:  %.4f\n", tr.MeasuredMeanFanout())
	return nil
}
