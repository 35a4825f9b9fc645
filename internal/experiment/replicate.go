package experiment

import (
	"fmt"
	"math"

	"voqsim/internal/core"
	"voqsim/internal/stats"
	"voqsim/internal/switchsim"
)

// Independent replications: the statistically rigorous way to put a
// confidence interval on a simulation estimate. One long run gives a
// point estimate whose naive standard error ignores autocorrelation;
// R replications with independent seeds give R independent estimates,
// and the classical interval over those is valid. The shape checks
// use single runs for speed; Replicate exists for anyone who needs
// defensible error bars (and for the engine's own convergence tests).

// ReplicateConfig describes the replicated experiment.
type ReplicateConfig struct {
	Algorithm Algorithm
	Pattern   PatternFunc
	Load      float64
	N         int
	// Replications is the number of independent runs (default 10).
	Replications int
	// Slots per replication. Zero selects the default (50k); a
	// negative value is a configuration error Replicate rejects.
	Slots int64
	// Seed is the base; replication r uses an independent derivation.
	Seed uint64
	// Workers caps how many replications run concurrently; zero or
	// negative uses runtime.GOMAXPROCS(0), i.e. one per CPU.
	Workers int
}

func (c ReplicateConfig) withDefaults() ReplicateConfig {
	if c.Replications <= 0 {
		c.Replications = 10
	}
	if c.Slots == 0 {
		c.Slots = 50_000
	}
	if c.Seed == 0 {
		c.Seed = 2004
	}
	return c
}

// Estimate is a replicated point estimate with a 95% confidence
// half-width computed over the replication means.
type Estimate struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width_95"`
	R         int64   `json:"replications"`
}

func estimate(w *stats.Welford) Estimate {
	hw := math.NaN()
	if w.Count() >= 2 {
		hw = 1.96 * w.StdErr()
	}
	return Estimate{Mean: w.Mean(), HalfWidth: hw, R: w.Count()}
}

// Covers reports whether the interval contains v.
func (e Estimate) Covers(v float64) bool {
	if math.IsNaN(e.HalfWidth) {
		return false
	}
	return math.Abs(e.Mean-v) <= e.HalfWidth
}

// ReplicateSummary aggregates the replications.
type ReplicateSummary struct {
	Algorithm string   `json:"algorithm"`
	Load      float64  `json:"load"`
	Unstable  int      `json:"unstable_replications"`
	InDelay   Estimate `json:"in_delay"`
	OutDelay  Estimate `json:"out_delay"`
	AvgQueue  Estimate `json:"avg_queue"`
	// Merged folds all R runs into one Results with
	// switchsim.MergeResults — the pooled view (counters summed,
	// moments combined), complementing the interval estimates above,
	// which stay defined over the per-replication means.
	Merged switchsim.Results   `json:"merged"`
	Runs   []switchsim.Results `json:"runs"`
}

// Replicate runs the configured experiment R times with independent
// seeds and returns interval estimates over the stable replications.
func Replicate(cfg ReplicateConfig) (*ReplicateSummary, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 || cfg.Pattern == nil || cfg.Algorithm.New == nil {
		return nil, fmt.Errorf("experiment: incomplete replicate config")
	}
	if cfg.Slots < 0 {
		return nil, fmt.Errorf("experiment: negative slot budget %d", cfg.Slots)
	}
	pat, err := cfg.Pattern(cfg.Load, cfg.N)
	if err != nil {
		return nil, err
	}

	// Replications are shards of the same engine that runs sweeps: each
	// derives its seed from its own index, so results are independent
	// of worker count and scheduling order.
	runs := make([]switchsim.Results, cfg.Replications)
	runShards(cfg.Workers, cfg.Replications, nil, func(rep int, pool *core.ArenaPool) string {
		seed := cfg.Seed ^ (uint64(rep)+1)*0xbf58476d1ce4e5b9
		r, _, release := RunSeeding.NewRunner(cfg.Algorithm, cfg.N, pat,
			switchsim.Config{Slots: cfg.Slots, Seed: seed}, pool, false)
		runs[rep] = r.Run(cfg.Algorithm.Name)
		release()
		return fmt.Sprintf("%s rep %d", cfg.Algorithm.Name, rep)
	})

	sum := &ReplicateSummary{
		Algorithm: cfg.Algorithm.Name, Load: cfg.Load, Runs: runs,
		Merged: switchsim.MergeResults(runs),
	}
	var in, out, q stats.Welford
	for _, r := range runs {
		if r.Unstable {
			sum.Unstable++
			continue
		}
		in.Add(r.InputDelay.Mean)
		out.Add(r.OutputDelay.Mean)
		q.Add(r.AvgQueue)
	}
	sum.InDelay = estimate(&in)
	sum.OutDelay = estimate(&out)
	sum.AvgQueue = estimate(&q)
	return sum, nil
}
