// Command voqfigs regenerates the evaluation figures of "FIFO Based
// Multicast Scheduling Algorithm for VOQ Packet Switches" (Pan & Yang,
// ICPP 2004): Figures 4-8 plus the extension sweeps, printed as
// aligned tables and ASCII plots, optionally exported as CSV/JSON, and
// checked against the paper's qualitative claims.
//
// Usage:
//
//	voqfigs [flags]
//
//	-figs fig4,fig5     which sweeps to run (default: all paper figures)
//	-slots 1000000      slots per point (default 200000; paper: 1e6)
//	-n 16               switch size
//	-seed 2004          base seed
//	-extended           add every extension baseline to the roster
//	-plots              render ASCII plots alongside tables
//	-out DIR            also write <fig>.csv and <fig>.json into DIR
//	-workers K          parallel simulations (default: all cores)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"voqsim/internal/experiment"
)

func main() {
	// AllAlgorithms lists the paper's four first; -extended adds the rest.
	var extension []string
	for _, a := range experiment.AllAlgorithms()[len(experiment.PaperAlgorithms()):] {
		extension = append(extension, a.Name)
	}
	var (
		figsFlag = flag.String("figs", "fig4,fig5,fig6,fig7,fig8", "comma-separated sweeps to run ("+strings.Join(experiment.FigureNames(), ", ")+", or all)")
		slots    = flag.Int64("slots", 0, "slots per point (0 = 200000; the paper uses 1000000)")
		n        = flag.Int("n", 16, "switch size N")
		seed     = flag.Uint64("seed", 2004, "base seed")
		extended = flag.Bool("extended", false, "include extension baselines ("+strings.Join(extension, ", ")+")")
		plots    = flag.Bool("plots", false, "render ASCII plots")
		outDir   = flag.String("out", "", "directory for CSV/JSON exports")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = all cores)")
	)
	flag.Parse()

	opts := experiment.Options{
		N: *n, Slots: *slots, Seed: *seed, Extended: *extended, Workers: *workers,
	}

	names := strings.Split(*figsFlag, ",")
	if *figsFlag == "all" {
		names = experiment.FigureNames()
	}

	failed := false
	for _, name := range names {
		fig, err := experiment.FigureByName(strings.TrimSpace(name))
		if err == nil {
			err = runFigure(fig, opts, *plots, *outDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "voqfigs: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func runFigure(fig experiment.Figure, opts experiment.Options, plots bool, outDir string) error {
	sweep := fig.Sweep(opts)
	fmt.Printf("==> %s: %s (slots=%d per point)\n", sweep.Name, sweep.Title, effectiveSlots(sweep.Slots))
	tbl, err := sweep.Run()
	if err != nil {
		return err
	}
	text, err := fig.Render(tbl, plots)
	if err != nil {
		return err
	}
	fmt.Println(text)

	if violations := tbl.Check(); len(violations) == 0 {
		fmt.Printf("shape check: PASS (paper's qualitative claims hold)\n\n")
	} else {
		fmt.Printf("shape check: %d violation(s):\n", len(violations))
		for _, v := range violations {
			fmt.Printf("  - %s\n", v)
		}
		fmt.Println()
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", outDir, err)
		}
		csvPath := filepath.Join(outDir, tbl.Name+".csv")
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		allMetrics := append(experiment.FigureMetrics(), experiment.Rounds, experiment.Throughput)
		if err := tbl.WriteCSV(f, allMetrics...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		jsonPath := filepath.Join(outDir, tbl.Name+".json")
		g, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := tbl.WriteJSON(g); err != nil {
			g.Close()
			return err
		}
		if err := g.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s and %s\n\n", csvPath, jsonPath)
	}
	return nil
}

func effectiveSlots(s int64) int64 {
	if s <= 0 {
		return 200_000
	}
	return s
}
