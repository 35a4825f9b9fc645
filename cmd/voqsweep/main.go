// Command voqsweep runs a load sweep — any traffic family, any subset
// of algorithms, or one of the paper's figure rows — and prints the
// measured series as tables, optionally as ASCII plots and CSV/JSON.
//
// Usage:
//
//	voqsweep [flags]
//
//	-figure fig5                       sweep a named figure row (Figures 4-8
//	                                   of the paper or an extension sweep):
//	                                   its traffic, roster, loads and headline
//	                                   metrics, followed by its claim verdict;
//	                                   -algos, -loads and -metrics replace the
//	                                   row's, -config, -topology and the
//	                                   traffic flags are errors
//	-algos fifoms,tatra,islip,oqfifo   algorithms to compare
//	-traffic bernoulli                 bernoulli | uniform | burst | mixed |
//	                                   hotspot | diagonal
//	-loads 0.1,0.2,...                 swept effective loads
//	-b, -maxfanout, -eon, -mcfrac, -skew
//	                                   family shape parameters (the traffic
//	                                   flags of cmd/voqsim)
//	-n, -slots, -seed, -workers        run setup
//	-parallel R                        run R independent replications of every
//	                                   point and merge them into one pooled
//	                                   measurement per point (replication 0 reuses
//	                                   the point's legacy seed, so tables extend
//	                                   rather than change); each replication is its
//	                                   own unit of work for -workers, -resume-dir
//	                                   and -serve
//	-topology fattree:k=4              sweep a multi-stage fabric (every node an
//	                                   instance of each -algos entry) instead of
//	                                   a single switch; -n is forced to the
//	                                   fabric's external port count
//	-metrics in_delay,avg_queue        metrics to print (fabric runs add hops, drops)
//	-plots                             add one ASCII plot per printed metric
//	-fast                              relaxed-identity fast mode: O(1) traffic
//	                                   sampling and batched statistics (DESIGN.md
//	                                   §12); statistically equivalent, not
//	                                   bit-comparable
//	-check                             invariant-check every point (exit 1 on violation)
//	-progress                          stream per-point completion and ETA to stderr
//	-resume-dir DIR                    make the sweep resumable: finished points and
//	                                   mid-run checkpoints live in DIR, and a re-run
//	                                   with the same flags picks up where it stopped
//	                                   (a -fast point, which cannot be snapshotted,
//	                                   runs whole)
//	-checkpoint-every K                checkpoint cadence in slots (with -resume-dir)
//	-csv FILE / -json FILE             exports
//	-cpuprofile FILE / -memprofile FILE  pprof profiles of the sweep
//	-serve ADDR                        coordinate a worker fleet on ADDR instead of
//	                                   simulating locally; prints "DSWEEP READY addr"
//	                                   to stderr, then emits the merged table exactly
//	                                   as a local run (see README "Distributed sweeps")
//	-worker ADDR                       run as a fleet worker against a coordinator
//	-worker-name NAME                  worker display name (default host-pid)
//	-lease-ttl 10s                     with -serve: reclaim a point whose worker is
//	                                   silent this long
//
// Example — reproduce Figure 7 with an extension baseline added:
//
//	voqsweep -figure fig7 -algos fifoms,tatra,islip,oqfifo,wba -plots
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"voqsim/internal/dsweep"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/scenario"
	"voqsim/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with its streams injected, so tests can pin
// stdout byte for byte. It returns the process exit code. Measured
// output (tables, plots, claim and check verdicts) goes to stdout;
// diagnostics and -progress reporting go to stderr only.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("voqsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figureName  = fs.String("figure", "", "sweep a named figure row ("+strings.Join(experiment.FigureNames(), ", ")+") and judge its claims")
		algosFlag   = fs.String("algos", "fifoms,tatra,islip,oqfifo", "comma-separated algorithms")
		spec        = traffic.RegisterFlags(fs)
		loadsFlag   = fs.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95", "comma-separated effective loads")
		n           = fs.Int("n", 16, "switch size N")
		topoFlag    = fs.String("topology", "", "multi-stage fabric spec: fattree:k=K | clos:n=N,m=M,r=R (empty: single switch)")
		slots       = fs.Int64("slots", 200_000, "slots per point")
		seed        = fs.Uint64("seed", 2004, "base seed")
		workers     = fs.Int("workers", 0, "parallel simulations (0 = all cores)")
		parallelR   = fs.Int("parallel", 0, "independent replications per point, merged into one measurement (0/1 = single run)")
		metricsFlag = fs.String("metrics", "in_delay,out_delay,avg_queue,max_queue", "metrics to print")
		plots       = fs.Bool("plots", false, "add one ASCII plot per printed metric")
		csvPath     = fs.String("csv", "", "write long-form CSV to this file")
		jsonPath    = fs.String("json", "", "write the full table as JSON to this file")
		configPath  = fs.String("config", "", "run a scenario file instead of flag-built traffic (see internal/scenario)")
		fastRun     = fs.Bool("fast", false, "relaxed-identity fast mode: O(1) traffic sampling and batched statistics")
		checkRun    = fs.Bool("check", false, "run every point under the runtime invariant checker; exit 1 on any violation")
		progressOn  = fs.Bool("progress", false, "stream per-point completion and ETA to stderr")
		resumeDir   = fs.String("resume-dir", "", "checkpoint directory; a re-run of the identical sweep resumes from it")
		ckptEvery   = fs.Int64("checkpoint-every", 0, "checkpoint cadence in slots (with -resume-dir; 0 = a tenth of -slots)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = fs.String("memprofile", "", "write a heap profile to this file at exit")
		serveAddr   = fs.String("serve", "", "coordinate a worker fleet on this TCP address (e.g. 127.0.0.1:0) instead of simulating locally")
		workerAddr  = fs.String("worker", "", "run as a fleet worker against this coordinator address")
		workerName  = fs.String("worker-name", "", "worker display name (default host-pid)")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "with -serve: reclaim a point whose worker is silent this long")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *workerAddr != "" {
		if *serveAddr != "" {
			return fail(stderr, fmt.Errorf("-serve and -worker are mutually exclusive"))
		}
		return runWorkerMode(*workerAddr, *workerName, *progressOn, stderr)
	}
	serve := serveOpts{addr: *serveAddr, ttl: *leaseTTL, verbose: *progressOn}

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer stopProfiles()

	var progress func(experiment.Progress)
	if *progressOn {
		progress = progressPrinter(stderr)
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	out := output{plots: *plots, csv: *csvPath, json: *jsonPath, checked: *checkRun}
	if *figureName != "" {
		fig, err := experiment.FigureByName(*figureName)
		if err != nil {
			return fail(stderr, err)
		}
		out.figure = &fig
	}

	// The scenario comes from a figure row, a file or the flags;
	// everything after that is the same.
	var sc *scenario.Scenario
	var sweep *experiment.Sweep
	switch {
	case out.figure != nil:
		sc, sweep, err = figureScenario(*out.figure, explicit, *algosFlag, *loadsFlag, *n, *slots, *seed, *workers)
	case *configPath != "":
		sc, sweep, err = fileScenario(*configPath)
	default:
		sc, sweep, err = flagScenario(*algosFlag, *loadsFlag, *spec, *n, *topoFlag, *slots, *seed, *workers)
	}
	if err != nil {
		return fail(stderr, err)
	}
	sweep.Check = *checkRun
	sweep.CheckpointDir = *resumeDir
	sweep.CheckpointEvery = *ckptEvery
	sweep.Replications = *parallelR
	sweep.Progress = progress
	sweep.Fast = *fastRun
	if out.metrics, err = parseMetrics(*metricsFlag); err != nil {
		return fail(stderr, err)
	}
	if out.figure != nil && !explicit["metrics"] {
		out.metrics = out.figure.Headline()
	}
	if serve.addr != "" {
		// The scenario itself is the wire spec the workers rebuild the
		// points from.
		wire := dsweep.Spec{Scenario: *sc, Check: *checkRun, Fast: *fastRun, Replications: *parallelR}
		return serveSweep(sweep, wire, serve, out, progress, stdout, stderr)
	}
	tbl, err := sweep.Run()
	if err != nil {
		return fail(stderr, err)
	}
	return out.emit(tbl, stdout, stderr)
}

// figureScenario writes the scenario of a figure row — its name,
// traffic, roster names and loads under the run setup flags — and
// builds its sweep under the row's title. An explicitly set -algos or
// -loads replaces the row's; -config, -topology or a traffic flag
// would change what the row's claims are about, so each is an error.
func figureScenario(fig experiment.Figure, explicit map[string]bool, algos, loads string, n int, slots int64, seed uint64, workers int) (*scenario.Scenario, *experiment.Sweep, error) {
	fixed := []string{"config", "topology"}
	tf := flag.NewFlagSet("", flag.ContinueOnError)
	traffic.RegisterFlags(tf)
	tf.VisitAll(func(f *flag.Flag) { fixed = append(fixed, f.Name) })
	for _, name := range fixed {
		if explicit[name] {
			return nil, nil, fmt.Errorf("-figure %s fixes its traffic and switch; -%s cannot be combined with it", fig.Name, name)
		}
	}
	row := fig.Sweep(experiment.Options{N: n, Slots: slots, Seed: seed})
	sc := &scenario.Scenario{Name: fig.Name, N: n, Slots: slots, Seed: seed, Traffic: fig.Traffic, Loads: row.Loads}
	for _, a := range row.Algorithms {
		sc.Algorithms = append(sc.Algorithms, a.Name)
	}
	if explicit["algos"] {
		sc.Algorithms = splitList(algos)
	}
	if explicit["loads"] {
		var err error
		if sc.Loads, err = parseLoads(loads); err != nil {
			return nil, nil, err
		}
	}
	sweep, err := sc.Sweep()
	if err != nil {
		return nil, nil, err
	}
	sweep.Title, sweep.Workers = row.Title, workers
	return sc, sweep, nil
}

// fileScenario reads a version-controlled scenario file.
func fileScenario(path string) (*scenario.Scenario, *experiment.Sweep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc, err := scenario.Read(f)
	if err != nil {
		return nil, nil, err
	}
	sweep, err := sc.Sweep()
	return sc, sweep, err
}

// flagScenario writes the scenario the flags describe — the traffic in
// its canonical form, so the wire spec of a served flag sweep is the
// one a scenario file saying the same would send — and builds its
// sweep, under the flag path's own report title.
func flagScenario(algos, loads string, spec traffic.Spec, n int, topology string, slots int64, seed uint64, workers int) (*scenario.Scenario, *experiment.Sweep, error) {
	sc := &scenario.Scenario{Name: "sweep", N: n, Slots: slots, Seed: seed, Traffic: spec.Canonical()}
	var err error
	if sc.Loads, err = parseLoads(loads); err != nil {
		return nil, nil, err
	}
	sc.Algorithms = splitList(algos)
	sizeLabel := fmt.Sprintf("%dx%d", n, n)
	if topology != "" {
		top, err := fabric.ParseSpec(topology)
		if err != nil {
			return nil, nil, err
		}
		// The engine drives the fabric's external ports; -n is not a
		// free parameter on a topology sweep.
		sc.N, sc.Topology = top.Ingress(), topology
		sizeLabel = fmt.Sprintf("%s (%d ports)", top.Name(), sc.N)
	}
	sweep, err := sc.Sweep()
	if err != nil {
		return nil, nil, err
	}
	sweep.Title = fmt.Sprintf("%s, %s", spec.Title(), sizeLabel)
	sweep.Workers = workers
	return sc, sweep, nil
}

// output is what the command does with a finished table, wherever it
// was simulated.
type output struct {
	metrics   []experiment.Metric
	plots     bool
	figure    *experiment.Figure // -figure's row, whose claims judge the table
	csv, json string
	checked   bool
}

// emit renders the finished table: formatted metrics (and plots) to
// stdout, the figure row's claim verdict, then the optional CSV/JSON
// exports and the invariant-check verdict. A violated claim is
// reported, not failed.
func (o output) emit(tbl *experiment.Table, stdout, stderr io.Writer) int {
	fmt.Fprint(stdout, tbl.Format(o.metrics...))
	if o.plots {
		fmt.Fprint(stdout, tbl.Plots(o.metrics...))
	}
	if o.figure != nil {
		if violations := o.figure.Check(tbl); len(violations) == 0 {
			fmt.Fprintf(stdout, "\nshape check: PASS (paper's qualitative claims hold)\n")
		} else {
			fmt.Fprintf(stdout, "\nshape check: %d violation(s):\n", len(violations))
			for _, v := range violations {
				fmt.Fprintf(stdout, "  - %s\n", v)
			}
		}
	}

	if o.csv != "" {
		if err := writeFile(o.csv, func(f *os.File) error {
			return tbl.WriteCSV(f, o.metrics...)
		}); err != nil {
			return fail(stderr, err)
		}
	}
	if o.json != "" {
		if err := writeFile(o.json, func(f *os.File) error {
			return tbl.WriteJSON(f)
		}); err != nil {
			return fail(stderr, err)
		}
	}
	return reportCheck(tbl, o.checked, stdout, stderr)
}

// progressPrinter renders engine progress events, one line each, to
// the diagnostic stream. Durations are rounded to whole milliseconds —
// progress is for humans, and sub-millisecond noise only jitters the
// column.
func progressPrinter(stderr io.Writer) func(experiment.Progress) {
	return func(p experiment.Progress) {
		fmt.Fprintf(stderr, "voqsweep: %d/%d %s elapsed %s eta %s\n",
			p.Done, p.Total, p.Label,
			p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
	}
}

// reportCheck prints the invariant-checker verdict of a checked sweep
// and returns non-zero when any point drew a violation.
func reportCheck(tbl *experiment.Table, checked bool, stdout, stderr io.Writer) int {
	if !checked {
		return 0
	}
	if fails := tbl.CheckFailures(); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(stderr, "voqsweep: check: %s\n", f)
		}
		return fail(stderr, fmt.Errorf("invariant check failed on %d points", len(fails)))
	}
	fmt.Fprintln(stdout, "check: all points passed the invariant checker")
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(tok))
	}
	return out
}

func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", tok, err)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

func parseMetrics(s string) ([]experiment.Metric, error) {
	known := map[string]experiment.Metric{
		"in_delay":     experiment.InputDelay,
		"out_delay":    experiment.OutputDelay,
		"avg_queue":    experiment.AvgQueue,
		"max_queue":    experiment.MaxQueue,
		"rounds":       experiment.Rounds,
		"throughput":   experiment.Throughput,
		"buffer_bytes": experiment.BufferBytes,
		"hops":         experiment.HopCount,
		"drops":        experiment.DroppedCopies,
	}
	var out []experiment.Metric
	for _, tok := range strings.Split(s, ",") {
		m, ok := known[strings.TrimSpace(tok)]
		if !ok {
			return nil, fmt.Errorf("unknown metric %q", tok)
		}
		out = append(out, m)
	}
	return out, nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "voqsweep: %v\n", err)
	return 1
}
