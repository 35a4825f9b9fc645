package experiment

import (
	"fmt"
	"strings"

	"voqsim/internal/switchsim"
)

// The saturation experiment measures each algorithm's maximum
// sustainable load under a traffic family by bisecting on the
// stability verdict — the quantity behind the paper's prose claims
// ("TATRA can only reach a maximum effective load of about 55%",
// "FIFOMS achieves 100% throughput under uniformly distributed
// traffic").

// SaturationResult is one algorithm's measured saturation load.
type SaturationResult struct {
	Algorithm string  `json:"algorithm"`
	MaxLoad   float64 `json:"max_load"`  // highest sustained load found
	Precision float64 `json:"precision"` // bisection interval width
}

// SaturationConfig sets up the search.
type SaturationConfig struct {
	N          int
	Pattern    PatternFunc
	Algorithms []Algorithm
	// Slots per probe (default 60k); longer probes detect slow drifts.
	Slots int64
	Seed  uint64
	// Precision is the bisection stopping width (default 0.02).
	Precision float64
	// Workers parallelises across algorithms.
	Workers int
}

func (c SaturationConfig) withDefaults() SaturationConfig {
	if c.Slots <= 0 {
		c.Slots = 60_000
	}
	if c.Seed == 0 {
		c.Seed = 2004
	}
	if c.Precision <= 0 {
		c.Precision = 0.02
	}
	return c
}

// Saturation bisects the maximum sustainable load of every algorithm.
func Saturation(cfg SaturationConfig) ([]SaturationResult, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 || cfg.Pattern == nil || len(cfg.Algorithms) == 0 {
		return nil, fmt.Errorf("experiment: incomplete saturation config")
	}
	results := make([]SaturationResult, len(cfg.Algorithms))
	runShards(cfg.Workers, len(cfg.Algorithms), nil, func(i int) string {
		results[i] = saturate(cfg, cfg.Algorithms[i])
		return cfg.Algorithms[i].Name
	})
	return results, nil
}

// stableProbe runs one probe and reports whether the load was held.
// Unreachable loads count as unsustainable.
func stableProbe(cfg SaturationConfig, algo Algorithm, load float64) bool {
	pat, err := cfg.Pattern(load, cfg.N)
	if err != nil {
		return false
	}
	seed := cfg.Seed ^ uint64(load*1e6)
	r, _, release := RunSeeding.NewRunner(algo, cfg.N, pat,
		switchsim.Config{Slots: cfg.Slots, Seed: seed}, false)
	defer release()
	return !r.Run(algo.Name).Unstable
}

func saturate(cfg SaturationConfig, algo Algorithm) SaturationResult {
	lo, hi := 0.0, 1.0
	// Establish a stable floor; some algorithm/traffic pairs cannot
	// hold even tiny loads stably (pathological configs), in which
	// case the answer is 0.
	if stableProbe(cfg, algo, 0.05) {
		lo = 0.05
	} else {
		return SaturationResult{Algorithm: algo.Name, MaxLoad: 0, Precision: cfg.Precision}
	}
	if stableProbe(cfg, algo, 1.0) {
		// Sustains (essentially) full load; report 1.0 directly.
		return SaturationResult{Algorithm: algo.Name, MaxLoad: 1.0, Precision: cfg.Precision}
	}
	for hi-lo > cfg.Precision {
		mid := (lo + hi) / 2
		if stableProbe(cfg, algo, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return SaturationResult{Algorithm: algo.Name, MaxLoad: lo, Precision: cfg.Precision}
}

// FormatSaturation renders the results as an aligned table.
func FormatSaturation(results []SaturationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s\n", "algorithm", "max load")
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %9.0f%%\n", r.Algorithm, r.MaxLoad*100)
	}
	return b.String()
}
