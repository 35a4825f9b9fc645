package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"voqsim/internal/dsweep"
	"voqsim/internal/experiment"
)

// Distributed mode: `voqsweep -serve ADDR` turns the command into a
// fleet coordinator — same flags, same stdout tables, but the points
// are simulated by `voqsweep -worker ADDR` processes instead of local
// goroutines. The coordinator announces its bound address on stderr as
//
//	DSWEEP READY host:port
//
// (stderr, so stdout stays byte-identical to a local run of the same
// flags, which the CLI golden tests pin).

// serveOpts carries the coordinator-mode knobs from flag parsing.
type serveOpts struct {
	addr    string
	ttl     time.Duration
	verbose bool // stream fleet events (joins, losses, re-leases) to stderr
}

// serveSweep runs the sweep as a fleet coordinator and emits the
// merged table exactly as a local run would.
func serveSweep(sweep *experiment.Sweep, spec dsweep.Spec, opts serveOpts, out output,
	progress func(experiment.Progress), stdout, stderr io.Writer) int {

	cfg := dsweep.Config{
		Sweep:    sweep,
		Spec:     spec,
		LeaseTTL: opts.ttl,
		Progress: progress,
	}
	if opts.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "voqsweep: fleet: "+format+"\n", args...)
		}
	}
	c, err := dsweep.NewCoordinator(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	addr, err := c.Listen(opts.addr)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "DSWEEP READY %s\n", addr)
	tbl, err := c.Serve()
	if err != nil {
		return fail(stderr, err)
	}
	if opts.verbose {
		// One summary line per fleet counter, so kills, expiries and
		// re-leases of the finished run are auditable from the shell.
		for _, m := range c.Metrics() {
			fmt.Fprintf(stderr, "voqsweep: fleet: %s=%d\n", m.Name, m.Value)
		}
	}
	return out.emit(tbl, stdout, stderr)
}

// runWorkerMode runs the process as one fleet worker until the
// coordinator reports the sweep done.
func runWorkerMode(addr, name string, verbose bool, stderr io.Writer) int {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	cfg := dsweep.WorkerConfig{Addr: addr, Name: name}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "voqsweep: worker %s: "+format+"\n", append([]any{name}, args...)...)
		}
	}
	if err := dsweep.RunWorker(cfg); err != nil {
		return fail(stderr, err)
	}
	return 0
}
