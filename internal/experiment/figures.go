package experiment

import (
	"fmt"
	"slices"
	"strings"

	"voqsim/internal/traffic"
)

// Options tune how the predefined figure sweeps are run without
// changing what they measure. The zero value reproduces the paper's
// setup at a laptop-friendly slot budget.
type Options struct {
	// N is the switch size; zero means the paper's 16.
	N int
	// Slots per point; zero means the engine default (200k). The paper
	// uses 1e6; pass that for the closest reproduction.
	Slots int64
	// Seed is the base seed for the whole figure; zero means 2004 (the
	// paper's year, an arbitrary fixed default).
	Seed uint64
	// Loads overrides the swept effective loads.
	Loads []float64
	// Extended adds the extension baselines (PIM, 2DRR, WBA, LQFMS,
	// ESLIP, no-split FIFOMS) to the roster.
	Extended bool
	// Workers caps sweep parallelism; zero means GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 16
	}
	if o.Seed == 0 {
		o.Seed = 2004
	}
	return o
}

func (o Options) algorithms() []Algorithm {
	if o.Extended {
		return AllAlgorithms()
	}
	return PaperAlgorithms()
}

func (o Options) loads(def []float64) []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	return def
}

// defaultLoads is the effective-load grid shared by the figure sweeps,
// matching the paper's x-axes (0.1 ... 0.95 of output capacity).
var defaultLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// Figure is one named experiment of the evaluation — a paper figure or
// an extension sweep — and everything the repo knows about it: what it
// measures, which columns its report shows, what the paper (or the
// extension's premise) claims, and the checker that holds a measured
// table to those claims. figureTable below is the only place a name
// such as "fig5" or "memory" is given meaning; reports, the facade and
// `voqsweep -figure` look a name up or range over the rows.
type Figure struct {
	// Name is the short id ("fig4", "memory"): the sweep's Name, the
	// report heading and the `voqsweep -figure` argument.
	Name string
	// Title describes the workload; the sweep's title appends the
	// switch size.
	Title string
	// Traffic is the arrival family, solved for each swept load.
	Traffic traffic.Spec
	// Roster lists the algorithms compared; nil means the Options'
	// roster (the paper's four, or every baseline under Extended).
	Roster []Algorithm
	// Extended lists algorithms a fixed Roster gains under
	// Options.Extended.
	Extended []Algorithm
	// Metrics are the headline columns; nil means FigureMetrics.
	Metrics []Metric
	// Claims are the qualitative statements Check verifies, in report
	// wording.
	Claims []string
	// Check returns the claims a measured table violates.
	Check func(*Table) []string
}

// PaperFigures is the number of leading figureTable rows that are the
// paper's own figures; the rest are extension sweeps.
const PaperFigures = 5

// The extension sweeps mostly rerun Figure 4's or Figure 7's traffic
// with another roster.
var (
	fig4Traffic = traffic.Spec{Family: "bernoulli", B: 0.2}
	fig7Traffic = traffic.Spec{Family: "uniform", MaxFanout: 8}
)

// figureTable lists every named experiment in report order: Figures
// 4-8 of Section V, then the extension sweeps.
var figureTable = []Figure{
	{
		// 16x16 switch, mean fanout 3.2, sweeping p so the effective
		// load covers the axis.
		Name: "fig4", Title: "Bernoulli traffic, b=0.2", Traffic: fig4Traffic,
		Claims: []string{
			"FIFOMS closely matches OQFIFO in input- and output-oriented delay",
			"FIFOMS has the smallest average and maximum queue size of all four algorithms",
			"TATRA's delay blows up and it goes unstable beyond ~0.8 load (HOL blocking)",
			"iSLIP has much longer delay than all other algorithms (multicast as unicast copies)",
		},
		Check: (*Table).CheckFig4,
	},
	{
		// The same traffic as Figure 4, FIFOMS versus iSLIP.
		Name: "fig5", Title: "Convergence rounds, Bernoulli b=0.2", Traffic: fig4Traffic,
		Roster: []Algorithm{FIFOMS, ISLIP}, Extended: []Algorithm{PIM},
		Metrics: []Metric{Rounds},
		Claims: []string{
			"both FIFOMS and iSLIP converge in far fewer than N rounds",
			"convergence rounds are insensitive to load while the scheduler is stable",
			"FIFOMS and iSLIP take roughly the same number of rounds",
		},
		Check: (*Table).CheckFig5,
	},
	{
		Name: "fig6", Title: "Uniform traffic, maxFanout=1 (unicast)",
		Traffic: traffic.Spec{Family: "uniform", MaxFanout: 1},
		Claims: []string{
			"TATRA reaches only ~55% load under pure unicast (theory: 0.586)",
			"FIFOMS matches (or beats) iSLIP's delay despite being a multicast design",
			"FIFOMS needs the least buffer space",
		},
		Check: (*Table).CheckFig6,
	},
	{
		// Mean fanout 4.5.
		Name: "fig7", Title: "Uniform traffic, maxFanout=8", Traffic: fig7Traffic,
		Claims: []string{
			"FIFOMS has the shortest delay among the input-queued algorithms",
			"FIFOMS beats even OQFIFO on buffer requirement at maxFanout=8",
			"TATRA performs better than under unicast (more placement choices)",
		},
		Check: (*Table).CheckFig7,
	},
	{
		// On/off Markov arrivals with the paper's mean burst length,
		// sweeping the off-state length to set the load.
		Name: "fig8", Title: "Burst traffic, b=0.5, Eon=16",
		Traffic: traffic.Spec{Family: "burst", B: 0.5, EOn: 16},
		Claims: []string{
			"all algorithms saturate earlier under bursts",
			"iSLIP saturates at a load too small to be seen in the delay plots",
			"FIFOMS outperforms TATRA on delay but not OQFIFO",
			"FIFOMS keeps the smallest queues",
		},
		Check: (*Table).CheckFig8,
	},
	{
		// The iteration count capped at 1, 2 and 4 rounds against the
		// run-to-convergence scheduler.
		Name: "ablation-rounds", Title: "FIFOMS iteration cap, Bernoulli b=0.2", Traffic: fig4Traffic,
		Roster: []Algorithm{FIFOMSRounds(1), FIFOMSRounds(2), FIFOMSRounds(4), FIFOMS},
		Claims: []string{"(extension) capping FIFOMS iterations costs delay only near saturation"},
		Check:  (*Table).CheckAblationRounds,
	},
	{
		// Backs the conclusion's claim that splitting is necessary for
		// high throughput.
		Name: "ablation-splitting", Title: "Fanout splitting on/off, Bernoulli b=0.2", Traffic: fig4Traffic,
		Roster: []Algorithm{FIFOMS, FIFOMSNoSplit},
		Claims: []string{"(extension) disabling fanout splitting collapses throughput (paper SVI: splitting is necessary)"},
		Check:  (*Table).CheckAblationSplitting,
	},
	{
		// The FIFO time stamp against longest-queue-first weighting on
		// the identical multicast VOQ structure: isolates the paper's
		// core scheduling idea.
		Name: "ablation-criterion", Title: "FIFO vs longest-queue criterion, Bernoulli b=0.2", Traffic: fig4Traffic,
		Roster: []Algorithm{FIFOMS, LQFMS},
		Claims: []string{"(extension) swapping the FIFO time stamp for longest-queue weighting loses multicast latency, not throughput"},
		Check:  (*Table).CheckAblationCriterion,
	},
	{
		// How much fabric speedup closes the gap between the pure
		// input-queued switch and the output-queued bound.
		Name: "speedup", Title: "CIOQ fabric speedup, Bernoulli b=0.2", Traffic: fig4Traffic,
		Roster: []Algorithm{FIFOMS, CIOQ(2), CIOQ(4), OQFIFO},
		Claims: []string{"(extension) CIOQ fabric speedup 2 brings FIFOMS's delay curve essentially onto OQFIFO's"},
		Check:  (*Table).CheckSpeedup,
	},
	{
		// One output four times hotter than the rest: the paper's 100%
		// throughput claim is for uniform traffic only.
		Name: "hotspot", Title: "Hotspot traffic, skew 4x",
		Traffic: traffic.Spec{Family: "hotspot", Skew: 4},
		Claims:  []string{"(extension) non-uniform hotspot traffic: the load axis is the hot output's load; uniform-traffic throughput guarantees do not transfer verbatim"},
		Check:   (*Table).CheckHotspot,
	},
	{
		// Time-stamp coordination against ESLIP's shared-pointer
		// coordination.
		Name: "industry", Title: "FIFOMS vs ESLIP, Bernoulli b=0.2", Traffic: fig4Traffic,
		Roster: []Algorithm{FIFOMS, ESLIP, ISLIP, OQFIFO},
		Claims: []string{"(extension) ESLIP (industrial: unicast VOQs + one multicast FIFO, shared pointer) beats iSLIP's copies but reintroduces HOL blocking among multicast packets, which FIFOMS's per-output address queues avoid"},
		Check:  (*Table).CheckIndustry,
	},
	{
		// Section IV.B's space analysis under Figure 7's traffic: one
		// payload per packet against one per destination.
		Name: "memory", Title: "Buffer memory, uniform maxFanout=8", Traffic: fig7Traffic,
		Roster:  []Algorithm{FIFOMS, ISLIP, TATRA, OQFIFO},
		Metrics: []Metric{BufferBytes, AvgQueue},
		Claims:  []string{"(extension, Section IV.B) the shared data cell keeps FIFOMS's buffer bytes a small fraction of iSLIP's copied cells and at or below OQ's per-queue copies"},
		Check:   (*Table).CheckMemory,
	},
	{
		// The introduction's observation that mixed traffic is hard
		// for single-queue multicast schedulers.
		Name: "mixed", Title: "Mixed traffic, 50% multicast, maxFanout=8",
		Traffic: traffic.Spec{Family: "mixed", MulticastFrac: 0.5, MaxFanout: 8},
		Claims:  []string{"(extension) mixed unicast/multicast traffic: single-FIFO schedulers lose throughput to HOL blocking"},
		Check:   (*Table).CheckMixed,
	},
}

// FigureTable returns every named experiment in report order; the
// first PaperFigures rows are the paper's own.
func FigureTable() []Figure { return figureTable }

// FigureNames returns every experiment's name, sorted: the order the
// facade, `voqsweep -figure`'s help and FigureByName's error list them
// in.
func FigureNames() []string {
	names := make([]string, len(figureTable))
	for i, f := range figureTable {
		names[i] = f.Name
	}
	slices.Sort(names)
	return names
}

// FigureByName resolves the name of a paper figure or extension sweep.
func FigureByName(name string) (Figure, error) {
	for _, f := range figureTable {
		if f.Name == name {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q (have %s)", name, strings.Join(FigureNames(), ", "))
}

// Sweep is the figure's load sweep under o.
func (f Figure) Sweep(o Options) *Sweep {
	o = o.withDefaults()
	algos := f.Roster
	switch {
	case algos == nil:
		algos = o.algorithms()
	case o.Extended:
		algos = slices.Concat(algos, f.Extended)
	}
	return &Sweep{
		Name:  f.Name,
		Title: fmt.Sprintf("%s, %dx%d", f.Title, o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: algos,
		Pattern:    f.Traffic.AtLoad,
	}
}

// Headline returns the metrics the figure's report shows.
func (f Figure) Headline() []Metric {
	if f.Metrics == nil {
		return FigureMetrics()
	}
	return f.Metrics
}

// Figures returns the five paper sweeps keyed by name.
func Figures(o Options) map[string]*Sweep {
	sweeps := make(map[string]*Sweep, PaperFigures)
	for _, f := range figureTable[:PaperFigures] {
		sweeps[f.Name] = f.Sweep(o)
	}
	return sweeps
}
