package check

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/check/oracle"
	"voqsim/internal/core"
	"voqsim/internal/eslip"
	"voqsim/internal/sched/pim"
	"voqsim/internal/traffic"
	"voqsim/internal/wba"
	"voqsim/internal/xrand"
)

// DiffConfig parameterises one differential run.
type DiffConfig struct {
	Algo  string  // fifoms | fifoms-nosplit | pim | eslip | wba
	N     int     // switch size
	Seed  uint64  // master seed (traffic and arbiter substreams derive from it)
	Slots int64   // slots to simulate (default 400)
	Load  float64 // effective load per output (default 0.7)
	B     float64 // Bernoulli per-output fanout probability (default 0.3)
}

// Differential drives two independent runs of the configured switch on
// identical seeded Bernoulli traffic and fails on any divergence:
//
//   - for "fifoms" and "fifoms-nosplit", the checked production kernel
//     against the checked naive oracle (internal/check/oracle) in the
//     same mode — the paper-prose reference must produce the identical
//     delivery stream;
//   - for every other algorithm, a checked run against an unchecked
//     one — pinning the checker's passivity guarantee (wrapping a
//     switch must not change a single delivery).
//
// In both shapes every checked run must also be violation-free, so one
// call exercises the invariant catalogue and the kernel equivalence at
// once. The returned error describes the first divergence or the
// checker verdicts.
func Differential(cfg DiffConfig) error {
	if cfg.Slots <= 0 {
		cfg.Slots = 400
	}
	if cfg.Load <= 0 {
		cfg.Load = 0.7
	}
	if cfg.B <= 0 {
		cfg.B = 0.3
	}
	pat, err := traffic.BernoulliAtLoad(cfg.Load, cfg.B, cfg.N)
	if err != nil {
		return fmt.Errorf("check: differential traffic: %w", err)
	}

	got, err := runOne(cfg, cfg.Algo, pat, true)
	if err != nil {
		return fmt.Errorf("check: %s (checked): %w", cfg.Algo, err)
	}
	refAlgo, refChecked := cfg.Algo, false
	switch cfg.Algo {
	case "fifoms":
		refAlgo, refChecked = "fifoms-oracle", true
	case "fifoms-nosplit":
		refAlgo, refChecked = "fifoms-oracle-nosplit", true
	}
	want, err := runOne(cfg, refAlgo, pat, refChecked)
	if err != nil {
		return fmt.Errorf("check: %s (reference): %w", refAlgo, err)
	}
	if err := compareDeliveries(want, got); err != nil {
		return fmt.Errorf("check: %s diverges from %s: %w", cfg.Algo, refAlgo, err)
	}
	return nil
}

// buildSwitch constructs the named switch seeded from root, mirroring
// the experiment roster's constructors.
func buildSwitch(algo string, n int, root *xrand.Rand) (Switch, error) {
	switch algo {
	case "fifoms":
		return core.NewSwitch(n, &core.FIFOMS{}, root), nil
	case "fifoms-nosplit":
		return core.NewSwitch(n, &core.FIFOMS{NoFanoutSplitting: true}, root), nil
	case "fifoms-oracle":
		return core.NewSwitch(n, oracle.New(), root), nil
	case "fifoms-oracle-nosplit":
		return core.NewSwitch(n, &oracle.Arbiter{NoFanoutSplitting: true}, root), nil
	case "pim":
		return core.NewSwitch(n, pim.New(), root), nil
	case "eslip":
		return eslip.New(n), nil
	case "wba":
		return wba.New(n, root), nil
	default:
		return nil, fmt.Errorf("unknown differential algorithm %q", algo)
	}
}

// runOne performs one seeded run and returns the delivery log. The
// seed discipline matches the voqsim facade: the switch and the
// traffic draw from independent substreams of the master seed, so a
// checked and an unchecked run — or the fast kernel and the oracle —
// see bit-identical inputs and tie-break randomness.
func runOne(cfg DiffConfig, algo string, pat traffic.Pattern, checked bool) ([]cell.Delivery, error) {
	root := xrand.New(cfg.Seed)
	sw, err := buildSwitch(algo, cfg.N, root.Split("switch", 0))
	if err != nil {
		return nil, err
	}
	var drive Switch = sw
	var ck *Checker
	if checked {
		ck = Wrap(sw, Options{})
		drive = ck
	}
	sources := traffic.BuildSources(pat, cfg.N, root.Split("traffic", 0))
	var id cell.PacketID
	var log []cell.Delivery
	for slot := int64(0); slot < cfg.Slots; slot++ {
		for in, src := range sources {
			dests := src.Next(slot)
			if dests == nil {
				continue
			}
			drive.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: dests})
			id++
		}
		drive.Step(slot, func(d cell.Delivery) { log = append(log, d) })
	}
	if ck != nil {
		if err := ck.Err(); err != nil {
			return log, err
		}
	}
	return log, nil
}

// compareDeliveries reports the first difference between two delivery
// streams, or nil when they are identical.
func compareDeliveries(want, got []cell.Delivery) error {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Errorf("delivery %d: reference %+v, kernel %+v", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("delivery count: reference %d, kernel %d", len(want), len(got))
	}
	return nil
}
