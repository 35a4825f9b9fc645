// Package report generates the reproduction report: it runs every
// figure of the paper's evaluation (plus the extension experiments),
// renders the measured series, and records each figure's
// paper-versus-measured verdict in Markdown. The checked-in
// EXPERIMENTS.md is produced by this package via cmd/voqreport.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"voqsim/internal/experiment"
	"voqsim/internal/traffic"
)

// Options configure the report run.
type Options struct {
	// Slots per sweep point (zero: 200k; the paper used 1e6).
	Slots int64
	// Seed is the base seed (zero: 2004).
	Seed uint64
	// Workers caps parallel simulations.
	Workers int
	// SkipExtensions restricts the report to the paper's five figures.
	SkipExtensions bool
}

// Generate runs the experiments and writes the Markdown report.
func Generate(o Options, w io.Writer) error {
	eo := experiment.Options{Slots: o.Slots, Seed: o.Seed, Workers: o.Workers}
	slots := o.Slots
	if slots <= 0 {
		slots = 200_000
	}

	fmt.Fprintf(w, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(w, "Reproduction of the evaluation of *FIFO Based Multicast Scheduling\n")
	fmt.Fprintf(w, "Algorithm for VOQ Packet Switches* (Pan & Yang, ICPP 2004).\n\n")
	fmt.Fprintf(w, "Setup: %d slots per point (paper: 10^6), warmup = half the run,\n", slots)
	fmt.Fprintf(w, "16x16 switch, base seed %d. Absolute numbers differ from the paper's\n", eoSeed(eo))
	fmt.Fprintf(w, "(different random streams and slot budgets); the *shape* claims below\n")
	fmt.Fprintf(w, "are what the reproduction is checked against. Regenerate with:\n\n")
	fmt.Fprintf(w, "    go run ./cmd/voqreport -slots %d\n\n", slots)
	writeReproductionGuide(w, slots, eoSeed(eo))

	figures := experiment.FigureTable()
	if o.SkipExtensions {
		figures = figures[:experiment.PaperFigures]
	}
	for _, fig := range figures {
		tbl, err := fig.Sweep(eo).Run()
		if err != nil {
			return fmt.Errorf("report: running %s: %w", fig.Name, err)
		}
		writeFigure(w, fig, tbl)
	}

	if !o.SkipExtensions {
		if err := writeSaturation(w, eo, slots); err != nil {
			return err
		}
		if err := writeScaling(w, eo, slots); err != nil {
			return err
		}
	}
	writeLiveSaturationGuide(w)
	return nil
}

// writeLiveSaturationGuide emits the recipe for measuring the live
// daemon's saturation curve with voqload over real sockets. Unlike the
// sweep sections above this one is a worked procedure, not a
// regenerated measurement: its numbers depend on the host the daemon
// runs on, so the section records how to produce the curve and what
// shape to expect rather than a table to diff.
func writeLiveSaturationGuide(w io.Writer) {
	fmt.Fprintf(w, "## Live daemon saturation (voqd + voqload)\n\n")
	fmt.Fprintf(w, "The saturation and scaling sections above are simulated model time.\n")
	fmt.Fprintf(w, "`cmd/voqd` runs the same switch against the wall clock — UDP ingress,\n")
	fmt.Fprintf(w, "slot-clock admission, UDP egress (docs/OPERATIONS.md) — so its\n")
	fmt.Fprintf(w, "saturation curve is a property of switch *and host*, measured end to\n")
	fmt.Fprintf(w, "end with `cmd/voqload` over real sockets. One point per offered load:\n\n")
	fmt.Fprintf(w, "    voqd -n 4 -seed 7 -ingress 127.0.0.1:9700 -admin 127.0.0.1:9790 \\\n")
	fmt.Fprintf(w, "        -slot-period 25us &\n")
	fmt.Fprintf(w, "    for load in 0.2 0.4 0.6 0.8 0.9 0.95; do\n")
	fmt.Fprintf(w, "      voqload -targets 127.0.0.1:9700,127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703 \\\n")
	fmt.Fprintf(w, "          -admin 127.0.0.1:9790 -traffic uniform -load $load -maxfanout 2 \\\n")
	fmt.Fprintf(w, "          -slots 40000 -slot-rate 40000 -seed 7 | grep RESULT\n")
	fmt.Fprintf(w, "    done\n\n")
	fmt.Fprintf(w, "Each `RESULT` line carries the point: offered frames (`sent`),\n")
	fmt.Fprintf(w, "received copies (`recv`), completed packets (`completed`), mean\n")
	fmt.Fprintf(w, "per-copy delay in slots (`mean_delay`) and total daemon-side drops\n")
	fmt.Fprintf(w, "(`drops`). `-slot-rate` paces the generator at the daemon's own slot\n")
	fmt.Fprintf(w, "rate, so `-load` means the same thing it means in the simulator.\n\n")
	fmt.Fprintf(w, "What to expect:\n\n")
	fmt.Fprintf(w, "- Below the knee, `recv` equals the copies addressed, `drops` is 0 and\n")
	fmt.Fprintf(w, "  `mean_delay` tracks the simulator's delay curve at that load (the\n")
	fmt.Fprintf(w, "  recorded-transcript mirror in docs/OPERATIONS.md shows the match to\n")
	fmt.Fprintf(w, "  the hundredth of a slot).\n")
	fmt.Fprintf(w, "- Past the knee the overload policy engages in order: `mean_delay`\n")
	fmt.Fprintf(w, "  climbs (VOQs filling), then `backpressure_slots_total` in `/metrics`\n")
	fmt.Fprintf(w, "  moves (admission holds frames in the ingress rings), then `drops`\n")
	fmt.Fprintf(w, "  go nonzero (rings full — the counted shed point). Which load hits\n")
	fmt.Fprintf(w, "  the knee depends on `-slot-period` and the host: admission capacity\n")
	fmt.Fprintf(w, "  is one packet per input per slot.\n")
	fmt.Fprintf(w, "- The curve is *statistically* reproducible (same seed, same offered\n")
	fmt.Fprintf(w, "  arrivals — `sent` and the addressed copies repeat exactly) but\n")
	fmt.Fprintf(w, "  delays and the knee are host-dependent, unlike every simulated\n")
	fmt.Fprintf(w, "  number in this file. For an auditable record of any live point, add\n")
	fmt.Fprintf(w, "  `-record` and replay the transcript with `voqtrace run -check`.\n")
}

// writeReproductionGuide emits the worked, command-by-command guide
// for reproducing Figures 5 and 6 with cmd/voqsweep alone — the same
// sweeps the figure sections below run through internal/experiment,
// spelled out so a reader can regenerate (and trust) any single point.
func writeReproductionGuide(w io.Writer, slots int64, seed uint64) {
	fmt.Fprintf(w, "## Worked reproduction: Figures 5 and 6 by hand\n\n")
	fmt.Fprintf(w, "Every figure below is produced by `internal/experiment` sweeps, but\n")
	fmt.Fprintf(w, "each one can be regenerated point-by-point with `cmd/voqsweep`. The\n")
	fmt.Fprintf(w, "two recipes here are worked end to end; the other figures differ only\n")
	fmt.Fprintf(w, "in traffic flags (see the per-figure titles below).\n\n")

	fmt.Fprintf(w, "**Figure 5 — convergence rounds, FIFOMS vs iSLIP** (Bernoulli\n")
	fmt.Fprintf(w, "traffic, b=0.2, 16x16; the paper's point: both converge in far fewer\n")
	fmt.Fprintf(w, "than N rounds, insensitive to load):\n\n")
	fmt.Fprintf(w, "    go run ./cmd/voqsweep -traffic bernoulli -b 0.2 \\\n")
	fmt.Fprintf(w, "        -algos fifoms,islip -metrics rounds \\\n")
	fmt.Fprintf(w, "        -n 16 -slots %d -seed %d -json fig5.json\n\n", slots, seed)
	fmt.Fprintf(w, "**Figure 6 — pure unicast delay** (uniform traffic, maxFanout=1;\n")
	fmt.Fprintf(w, "the paper's point: TATRA saturates near 0.586 from HOL blocking while\n")
	fmt.Fprintf(w, "FIFOMS tracks iSLIP and OQFIFO):\n\n")
	fmt.Fprintf(w, "    go run ./cmd/voqsweep -traffic uniform -maxfanout 1 \\\n")
	fmt.Fprintf(w, "        -algos fifoms,tatra,islip,oqfifo -metrics in_delay \\\n")
	fmt.Fprintf(w, "        -n 16 -slots %d -seed %d -json fig6.json\n\n", slots, seed)

	fmt.Fprintf(w, "What to expect:\n\n")
	fmt.Fprintf(w, "- Each command prints one table per requested metric over the default\n")
	fmt.Fprintf(w, "  load axis (0.1 ... 0.95) and writes the full measurement table as\n")
	fmt.Fprintf(w, "  JSON: `loads`, `algorithms`, and `points[loadIdx][algoIdx].results`\n")
	fmt.Fprintf(w, "  holding every statistic (`input_delay.mean`, `rounds.mean`,\n")
	fmt.Fprintf(w, "  `unstable`, ...) of that run.\n")
	fmt.Fprintf(w, "- Runs are deterministic: the base seed (-seed %d) derives one\n", seed)
	fmt.Fprintf(w, "  substream per (figure point, input port) via splitmix64, so any\n")
	fmt.Fprintf(w, "  single number in this file is reproducible bit-for-bit with the\n")
	fmt.Fprintf(w, "  commands above — worker count and run order do not matter. Each\n")
	fmt.Fprintf(w, "  point's derived seed is recorded in its `results.seed`.\n")
	fmt.Fprintf(w, "- Fig. 5's verdict needs `rounds.mean` well under N=16 at every\n")
	fmt.Fprintf(w, "  stable load; Fig. 6's needs `tatra` rows flagged `sat` above ~0.55\n")
	fmt.Fprintf(w, "  load while the other algorithms stay stable.\n")
	fmt.Fprintf(w, "- For single operating points (with an event trace to debug a\n")
	fmt.Fprintf(w, "  surprising number), use `cmd/voqsim` with the same traffic flags\n")
	fmt.Fprintf(w, "  plus `-trace out.jsonl`, then `voqtrace timeline` / `explain`.\n\n")
}

func eoSeed(eo experiment.Options) uint64 {
	if eo.Seed == 0 {
		return 2004
	}
	return eo.Seed
}

func writeFigure(w io.Writer, fig experiment.Figure, tbl *experiment.Table) {
	fmt.Fprintf(w, "## %s — %s\n\n", fig.Name, tbl.Title)

	fmt.Fprintf(w, "Paper claims:\n\n")
	for _, c := range fig.Claims {
		fmt.Fprintf(w, "- %s\n", c)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Measured (`sat` marks saturated/unstable points):\n\n")
	fmt.Fprintf(w, "```\n%s```\n\n", tbl.Format(fig.Headline()...))

	violations := fig.Check(tbl)
	if len(violations) == 0 {
		fmt.Fprintf(w, "**Verdict: REPRODUCED** — every checked claim holds.\n\n")
	} else {
		fmt.Fprintf(w, "**Verdict: %d claim(s) NOT reproduced:**\n\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(w, "- %s\n", v)
		}
		fmt.Fprintln(w)
	}
}

func writeSaturation(w io.Writer, eo experiment.Options, slots int64) error {
	fmt.Fprintf(w, "## saturation — maximum sustainable load (extension)\n\n")
	fmt.Fprintf(w, "Bisected stability boundary per algorithm; backs the paper's prose\n")
	fmt.Fprintf(w, "(\"TATRA can only reach ... about 55%%\" under unicast, \"FIFOMS achieves\n")
	fmt.Fprintf(w, "100%% throughput under uniformly distributed traffic\").\n\n")

	families := []struct {
		title   string
		pattern experiment.PatternFunc
	}{
		{"unicast (uniform, maxFanout=1)", traffic.Spec{Family: "uniform", MaxFanout: 1}.AtLoad},
		{"multicast (Bernoulli, b=0.2)", traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad},
	}
	probe := slots / 4
	if probe < 20_000 {
		probe = 20_000
	}
	for _, fam := range families {
		results, err := experiment.Saturation(experiment.SaturationConfig{
			N:          16,
			Pattern:    fam.pattern,
			Algorithms: experiment.AllAlgorithms(),
			Slots:      probe,
			Seed:       eoSeed(eo),
			Workers:    eo.Workers,
		})
		if err != nil {
			return fmt.Errorf("report: saturation: %w", err)
		}
		sort.Slice(results, func(i, j int) bool { return results[i].MaxLoad > results[j].MaxLoad })
		fmt.Fprintf(w, "%s:\n\n```\n%s```\n\n", fam.title, experiment.FormatSaturation(results))
	}
	return nil
}

func writeScaling(w io.Writer, eo experiment.Options, slots int64) error {
	fmt.Fprintf(w, "## scaling — convergence rounds vs. switch size (Section IV.C)\n\n")
	fmt.Fprintf(w, "FIFOMS at load 0.7 (Bernoulli b=0.2): average rounds stay far below N\n")
	fmt.Fprintf(w, "and grow sub-linearly, so with parallel comparator trees (O(log N) per\n")
	fmt.Fprintf(w, "round) the hardware scheduling budget grows slowly; the serial column\n")
	fmt.Fprintf(w, "is the O(N)-per-round alternative the paper mentions.\n\n")

	scaleSlots := slots / 2
	if scaleSlots < 20_000 {
		scaleSlots = 20_000
	}
	points, err := experiment.Scaling(experiment.ScalingConfig{
		Slots: scaleSlots, Seed: eoSeed(eo), Workers: eo.Workers,
	})
	if err != nil {
		return fmt.Errorf("report: scaling: %w", err)
	}
	fmt.Fprintf(w, "```\n%s```\n\n", experiment.FormatScaling(points))
	if violations := experiment.CheckScaling(points); len(violations) == 0 {
		fmt.Fprintf(w, "**Verdict: REPRODUCED** — rounds stay far below N and grow sub-linearly.\n\n")
	} else {
		fmt.Fprintf(w, "**Verdict: violations:** %s\n\n", strings.Join(violations, "; "))
	}
	return nil
}
