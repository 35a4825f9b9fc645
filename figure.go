package voqsim

import (
	"slices"

	"voqsim/internal/experiment"
)

// FigureOptions tune a figure regeneration.
type FigureOptions struct {
	// Slots per sweep point; zero means 200 000 (paper: 1 000 000).
	Slots int64
	// Seed is the base seed (zero means 2004).
	Seed uint64
	// Ports overrides the switch size (zero means the paper's 16).
	Ports int
	// Extended adds every extension baseline — each Schedulers() entry
	// beyond the paper's fifoms, tatra, islip and oqfifo — to the
	// figures that compare the paper's roster, and pim to fig5.
	Extended bool
	// Plots adds ASCII plots to the rendered text.
	Plots bool
	// Workers caps the parallel simulations (zero means all cores).
	Workers int
}

// FigureResult is a regenerated evaluation figure.
type FigureResult struct {
	// Name is the figure id ("fig4" ... "fig8", or an extension name).
	Name string
	// Title describes the workload.
	Title string
	// Text is the rendered table (and plots, if requested).
	Text string
	// Violations lists the paper's qualitative claims that did NOT
	// hold in this run; empty means the figure's shape matches.
	Violations []string
	// Series holds the raw measured values keyed "algorithm/metric",
	// parallel to Loads; saturated points are +Inf.
	Loads  []float64
	Series map[string][]float64
}

// FigureNames lists the available figure and extension sweeps, sorted.
func FigureNames() []string { return experiment.FigureNames() }

// Figure regenerates one of the paper's evaluation figures (fig4 ...
// fig8) or one of the extension sweeps — FigureNames lists them all —
// and checks it against the claims recorded for it.
func Figure(name string, opts FigureOptions) (*FigureResult, error) {
	fig, err := experiment.FigureByName(name)
	if err != nil {
		return nil, err
	}
	tbl, err := fig.Sweep(experiment.Options{
		N: opts.Ports, Slots: opts.Slots, Seed: opts.Seed,
		Extended: opts.Extended, Workers: opts.Workers,
	}).Run()
	if err != nil {
		return nil, err
	}
	text := tbl.Format(fig.Headline()...)
	if opts.Plots {
		text += tbl.Plots(fig.Headline()...)
	}

	res := &FigureResult{
		Name:       tbl.Name,
		Title:      tbl.Title,
		Text:       text,
		Violations: fig.Check(tbl),
		Loads:      tbl.Loads,
		Series:     make(map[string][]float64),
	}
	metrics := slices.Concat(fig.Headline(), []experiment.Metric{experiment.Throughput})
	for _, algo := range tbl.Algos {
		for _, m := range metrics {
			ys, err := tbl.Series(algo, m)
			if err != nil {
				return nil, err
			}
			res.Series[algo+"/"+m.Name] = ys
		}
	}
	return res, nil
}
