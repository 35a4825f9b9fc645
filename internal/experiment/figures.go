package experiment

import (
	"fmt"

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

// Fig4 is the Bernoulli-traffic comparison (Figure 4): 16x16 switch,
// Bernoulli arrivals with b = 0.2 (mean fanout 3.2), sweeping p so the
// effective load covers the axis.
func Fig4(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "fig4",
		Title: fmt.Sprintf("Bernoulli traffic, b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: o.algorithms(),
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// Fig5 is the convergence-rounds comparison (Figure 5): the same
// traffic as Figure 4, FIFOMS versus iSLIP, metric Rounds.
func Fig5(o Options) *Sweep {
	o = o.withDefaults()
	algos := []Algorithm{FIFOMS, ISLIP}
	if o.Extended {
		algos = append(algos, PIM)
	}
	return &Sweep{
		Name:  "fig5",
		Title: fmt.Sprintf("Convergence rounds, Bernoulli b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: algos,
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// Fig6 is the pure-unicast comparison (Figure 6): uniform traffic with
// maxFanout = 1.
func Fig6(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "fig6",
		Title: fmt.Sprintf("Uniform traffic, maxFanout=1 (unicast), %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: o.algorithms(),
		Pattern:    traffic.Spec{Family: "uniform", MaxFanout: 1}.AtLoad,
	}
}

// Fig7 is the bounded-fanout multicast comparison (Figure 7): uniform
// traffic with maxFanout = 8 (mean fanout 4.5).
func Fig7(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "fig7",
		Title: fmt.Sprintf("Uniform traffic, maxFanout=8, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: o.algorithms(),
		Pattern:    traffic.Spec{Family: "uniform", MaxFanout: 8}.AtLoad,
	}
}

// Fig8 is the bursty-traffic comparison (Figure 8): on/off Markov
// arrivals with b = 0.5 and mean burst length Eon = 16 as in the
// paper, sweeping the off-state length to set the load.
func Fig8(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "fig8",
		Title: fmt.Sprintf("Burst traffic, b=0.5, Eon=16, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: o.algorithms(),
		Pattern:    traffic.Spec{Family: "burst", B: 0.5, EOn: 16}.AtLoad,
	}
}

// AblationRounds sweeps FIFOMS under Figure 4's traffic with the
// iteration count capped at 1, 2 and 4 rounds against the
// run-to-convergence scheduler (extension experiment).
func AblationRounds(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "ablation-rounds",
		Title: fmt.Sprintf("FIFOMS iteration cap, Bernoulli b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: []Algorithm{FIFOMSRounds(1), FIFOMSRounds(2), FIFOMSRounds(4), FIFOMS},
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// AblationSplitting compares FIFOMS with its no-fanout-splitting
// variant under Figure 4's traffic (extension experiment backing the
// conclusion's claim that splitting is necessary for high throughput).
func AblationSplitting(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "ablation-splitting",
		Title: fmt.Sprintf("Fanout splitting on/off, Bernoulli b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: []Algorithm{FIFOMS, FIFOMSNoSplit},
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// AblationCriterion compares the FIFO time-stamp criterion against
// longest-queue-first weighting on the identical multicast VOQ
// structure under Figure 4's traffic (extension experiment isolating
// the paper's core scheduling idea).
func AblationCriterion(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "ablation-criterion",
		Title: fmt.Sprintf("FIFO vs longest-queue criterion, Bernoulli b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: []Algorithm{FIFOMS, LQFMS},
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// Speedup sweeps CIOQ fabric speedups against the pure input-queued
// FIFOMS switch and the output-queued bound under Figure 4's traffic
// (extension experiment: how much speedup closes the IQ-OQ gap).
func Speedup(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "speedup",
		Title: fmt.Sprintf("CIOQ fabric speedup, Bernoulli b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: []Algorithm{FIFOMS, CIOQ(2), CIOQ(4), OQFIFO},
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// HotspotTraffic sweeps non-uniform traffic with one output four
// times hotter than the rest (extension experiment: the paper's 100%%
// throughput claim is for uniform traffic only; this probes beyond it).
func HotspotTraffic(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "hotspot",
		Title: fmt.Sprintf("Hotspot traffic, skew 4x, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: o.algorithms(),
		Pattern:    traffic.Spec{Family: "hotspot", Skew: 4}.AtLoad,
	}
}

// Industry compares FIFOMS against the industrial ESLIP scheduler and
// the OQ bound under Figure 4's traffic (extension experiment: how the
// paper's time-stamp coordination compares with ESLIP's shared-pointer
// coordination).
func Industry(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "industry",
		Title: fmt.Sprintf("FIFOMS vs ESLIP, Bernoulli b=0.2, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: []Algorithm{FIFOMS, ESLIP, ISLIP, OQFIFO},
		Pattern:    traffic.Spec{Family: "bernoulli", B: 0.2}.AtLoad,
	}
}

// Memory sweeps buffer memory in bytes under Figure 7's traffic
// (extension experiment reproducing Section IV.B's space analysis:
// the shared data cell stores one payload per packet where iSLIP's
// copies and OQ's per-queue entries store one per destination).
func Memory(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "memory",
		Title: fmt.Sprintf("Buffer memory, uniform maxFanout=8, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: []Algorithm{FIFOMS, ISLIP, TATRA, OQFIFO},
		Pattern:    traffic.Spec{Family: "uniform", MaxFanout: 8}.AtLoad,
	}
}

// MixedTraffic sweeps a half-unicast/half-multicast mix (extension
// experiment for the introduction's observation that mixed traffic is
// hard for single-queue multicast schedulers).
func MixedTraffic(o Options) *Sweep {
	o = o.withDefaults()
	return &Sweep{
		Name:  "mixed",
		Title: fmt.Sprintf("Mixed traffic, 50%% multicast, maxFanout=8, %dx%d", o.N, o.N),
		N:     o.N, Slots: o.Slots, Seed: o.Seed, Workers: o.Workers,
		Loads:      o.loads(defaultLoads),
		Algorithms: o.algorithms(),
		Pattern:    traffic.Spec{Family: "mixed", MulticastFrac: 0.5, MaxFanout: 8}.AtLoad,
	}
}

// Figures returns the five paper sweeps keyed by name.
func Figures(o Options) map[string]*Sweep {
	return map[string]*Sweep{
		"fig4": Fig4(o),
		"fig5": Fig5(o),
		"fig6": Fig6(o),
		"fig7": Fig7(o),
		"fig8": Fig8(o),
	}
}

// Extensions returns the extension sweeps keyed by name.
func Extensions(o Options) map[string]*Sweep {
	return map[string]*Sweep{
		"ablation-rounds":    AblationRounds(o),
		"ablation-splitting": AblationSplitting(o),
		"ablation-criterion": AblationCriterion(o),
		"speedup":            Speedup(o),
		"hotspot":            HotspotTraffic(o),
		"memory":             Memory(o),
		"industry":           Industry(o),
		"mixed":              MixedTraffic(o),
	}
}
