package experiment

import (
	"fmt"
	"strings"

	"voqsim/internal/hw"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
)

// The scaling experiment backs Section IV.C's complexity analysis:
// FIFOMS converges in far fewer than N rounds on average, so with
// parallel comparator trees (O(log N) gate depth per round) the
// per-slot scheduling latency grows only logarithmically in practice,
// while a serial implementation pays O(N) per round.

// ScalingPoint is the measurement at one switch size.
type ScalingPoint struct {
	N          int     `json:"n"`
	MeanRounds float64 `json:"mean_rounds"`
	MaxRounds  float64 `json:"max_rounds"` // largest per-slot rounds observed
	InDelay    float64 `json:"in_delay"`

	// Latency estimates under the default hardware model.
	TreeSlotPs   float64 `json:"tree_slot_ps"`   // parallel comparator trees
	SerialSlotPs float64 `json:"serial_slot_ps"` // serial comparators
}

// ScalingConfig sets up the sweep over switch sizes.
type ScalingConfig struct {
	// Sizes are the switch sizes to measure (default 4..64 doubling).
	Sizes []int
	// Load is the effective load at each size (default 0.7).
	Load float64
	// B is the Bernoulli per-output probability (default 0.2).
	B float64
	// Slots per point (default 100k), Seed, Workers as in Sweep.
	Slots   int64
	Seed    uint64
	Workers int
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4, 8, 16, 32, 64}
	}
	if c.Load <= 0 {
		c.Load = 0.7
	}
	if c.B <= 0 {
		c.B = 0.2
	}
	if c.Slots <= 0 {
		c.Slots = 100_000
	}
	if c.Seed == 0 {
		c.Seed = 2004
	}
	return c
}

// Scaling measures FIFOMS convergence rounds and estimated hardware
// scheduling latency across switch sizes at a fixed effective load.
func Scaling(cfg ScalingConfig) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	points := make([]ScalingPoint, len(cfg.Sizes))
	errs := make([]error, len(cfg.Sizes))
	runShards(cfg.Workers, len(cfg.Sizes), nil, func(i int) string {
		points[i], errs[i] = scalingPoint(cfg, cfg.Sizes[i], uint64(i))
		return fmt.Sprintf("N=%d", cfg.Sizes[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

func scalingPoint(cfg ScalingConfig, n int, idx uint64) (ScalingPoint, error) {
	pat, err := traffic.BernoulliAtLoad(cfg.Load, cfg.B, n)
	if err != nil {
		return ScalingPoint{}, fmt.Errorf("experiment: scaling at N=%d: %w", n, err)
	}
	seed := cfg.Seed ^ (idx+1)*0x9e3779b97f4a7c15
	r, _, release := RunSeeding.NewRunner(FIFOMS, n, pat,
		switchsim.Config{Slots: cfg.Slots, Seed: seed}, false)
	defer release()
	res := r.Run(FIFOMS.Name)

	lat := hw.DefaultLatency
	return ScalingPoint{
		N:            n,
		MeanRounds:   res.Rounds.Mean,
		MaxRounds:    res.Rounds.Max,
		InDelay:      res.InputDelay.Mean,
		TreeSlotPs:   lat.SlotLatencyPs(n, res.Rounds.Mean),
		SerialSlotPs: res.Rounds.Mean * float64(lat.SerialRoundLatencyPs(n)),
	}, nil
}

// FormatScaling renders the scaling points as an aligned table.
func FormatScaling(points []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %11s %10s %14s %15s\n",
		"N", "mean rounds", "max rounds", "in delay", "tree ps/slot", "serial ps/slot")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %12.3f %11.0f %10.3f %14.0f %15.0f\n",
			p.N, p.MeanRounds, p.MaxRounds, p.InDelay, p.TreeSlotPs, p.SerialSlotPs)
	}
	return b.String()
}

// CheckScaling verifies Section IV.C's claims on the measured points:
// average rounds stay far below N (and essentially flat), and worst
// case rounds never exceed N.
func CheckScaling(points []ScalingPoint) []string {
	var v []string
	for _, p := range points {
		check(&v, p.MeanRounds <= float64(p.N)/2,
			"N=%d: mean rounds %.2f not << N", p.N, p.MeanRounds)
		check(&v, p.MaxRounds <= float64(p.N),
			"N=%d: max rounds %.0f exceeds the N-round bound", p.N, p.MaxRounds)
	}
	if len(points) >= 2 {
		first, last := points[0], points[len(points)-1]
		growth := last.MeanRounds / first.MeanRounds
		sizeGrowth := float64(last.N) / float64(first.N)
		check(&v, growth < sizeGrowth/2,
			"mean rounds grew %.1fx over a %.0fx size increase — not sub-linear", growth, sizeGrowth)
	}
	return v
}
