package check_test

// The delivery-level differential (DESIGN.md §9). Every roster
// architecture (internal/roster) runs wrapped in the checker on seeded
// Bernoulli traffic and must report no violation and deliver, copy for
// copy, what a reference run on the same seeds delivers. FIFOMS's modes
// have a reference of their own: the paper-prose oracle
// (internal/check/oracle) in the same mode, itself checked. Every other
// architecture's reference is its own unchecked run, which pins the
// checker's passivity: wrapping a switch changes no delivery.
//
// The harness has its own slot loop: the engine (internal/switchsim)
// is part of what it cross-examines.

import (
	"fmt"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/check/oracle"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/experiment"
	"voqsim/internal/roster"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// oracles are the reference arbiters of the roster's FIFOMS modes.
var oracles = map[string]func() core.Arbiter{
	"fifoms":         func() core.Arbiter { return oracle.New() },
	"fifoms-nosplit": func() core.Arbiter { return &oracle.Arbiter{NoFanoutSplitting: true} },
	"fifoms-r2":      func() core.Arbiter { return &oracle.Arbiter{MaxRounds: 2} },
}

// deliveries runs sw for slots slots on pat, drawn through NextInto
// from the "traffic" substream of seed, and returns the delivery log.
func deliveries(sw check.Switch, pat traffic.Pattern, seed uint64, slots int64) []cell.Delivery {
	n := sw.Ports()
	sources := traffic.BuildSources(pat, n, xrand.New(seed).Split("traffic", 0))
	dests := destset.New(n)
	var id cell.PacketID
	var log []cell.Delivery
	for slot := int64(0); slot < slots; slot++ {
		for in, src := range sources {
			if !src.(traffic.IntoSource).NextInto(slot, dests) {
				continue
			}
			sw.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: dests})
			dests = destset.New(n)
			id++
		}
		sw.Step(slot, func(d cell.Delivery) { log = append(log, d) })
	}
	return log
}

// checkedDeliveries is deliveries with sw wrapped in the checker,
// failing t on any violation.
func checkedDeliveries(t *testing.T, sw check.Switch, pat traffic.Pattern, seed uint64, slots int64) []cell.Delivery {
	t.Helper()
	ck := check.Wrap(sw, check.Options{})
	log := deliveries(ck, pat, seed, slots)
	if err := ck.Err(); err != nil {
		t.Fatalf("%s: %v", ck.Profile(), err)
	}
	return log
}

// sameDeliveries fails t at the first difference between two delivery
// logs.
func sameDeliveries(t *testing.T, ref string, want, got []cell.Delivery) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			t.Fatalf("delivery %d: %s %+v, checked run %+v", i, ref, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("delivery count: %s %d, checked run %d", ref, len(want), len(got))
	}
}

// differential runs one cell of the grid: algo at n on Bernoulli
// traffic at load with per-output fanout probability b.
func differential(t *testing.T, algo experiment.Algorithm, n int, seed uint64, slots int64, load, b float64) {
	pat, err := traffic.BernoulliAtLoad(load, b, n)
	if err != nil {
		t.Fatal(err)
	}
	root := func() *xrand.Rand { return xrand.New(seed).Split("switch", 0) }
	got := checkedDeliveries(t, algo.New(n, root()), pat, seed, slots)
	if ref, ok := oracles[algo.Name]; ok {
		want := checkedDeliveries(t, core.NewSwitch(n, ref(), root()), pat, seed, slots)
		sameDeliveries(t, "oracle", want, got)
		return
	}
	sameDeliveries(t, "unchecked run", deliveries(algo.New(n, root()), pat, seed, slots), got)
}

// TestDifferentialGrid is the acceptance grid: every roster
// architecture at every size with three independent seeds.
func TestDifferentialGrid(t *testing.T) {
	slotsByN := map[int]int64{4: 400, 8: 300, 16: 200, 32: 100, 64: 50}
	for _, algo := range roster.For(roster.CheckerDifferential) {
		for _, n := range []int{4, 8, 16, 32, 64} {
			if testing.Short() && n > 16 {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n%d/seed%d", algo.Name, n, seed), func(t *testing.T) {
					t.Parallel()
					differential(t, algo, n, seed, slotsByN[n], 0.7, 0.3)
				})
			}
		}
	}
}

// TestDifferentialOverload repeats the fifoms-vs-oracle comparison in
// the saturated regime, where rounds and fanout splitting are at their
// most contended.
func TestDifferentialOverload(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			differential(t, experiment.FIFOMS, 8, seed, 300, 0.98, 0.4)
		})
	}
}

// TestCheckerPassivity pins the checker's core guarantee for FIFOMS,
// whose grid reference is the oracle: wrapping the switch — observer
// attached and all — changes no delivery.
func TestCheckerPassivity(t *testing.T) {
	const n, slots, seed = 8, 400, 11
	pat, err := traffic.BernoulliAtLoad(0.8, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	build := func() check.Switch { return experiment.FIFOMS.New(n, xrand.New(seed).Split("switch", 0)) }
	want := deliveries(build(), pat, seed, slots)
	sameDeliveries(t, "unchecked run", want, deliveries(check.Wrap(build(), check.Options{}), pat, seed, slots))
}

// profiles is the checking profile each roster architecture must be
// detected as, by prefix.
var profiles = map[string]string{
	"fifoms":         "core/fifoms",
	"fifoms-nosplit": "core/fifoms-nosplit",
	"fifoms-r2":      "core/fifoms",
	"islip":          "core/islip",
	"pim":            "core/pim",
	"lqfms":          "core/lqfms",
	"2drr":           "core/2drr",
	"eslip":          "eslip",
	"wba":            "wba",
	"tatra":          "generic",
	"oqfifo":         "generic",
	"cioq-s2":        "generic",
}

// TestCleanRunAllArchitectures pins that a correct switch of every
// roster architecture passes the full invariant catalogue, and that
// profile detection classifies each one as intended.
func TestCleanRunAllArchitectures(t *testing.T) {
	const n, slots, seed = 8, 300, 7
	pat, err := traffic.BernoulliAtLoad(0.7, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range roster.For(roster.CheckerClean) {
		t.Run(algo.Name, func(t *testing.T) {
			want, ok := profiles[algo.Name]
			if !ok {
				t.Fatalf("no checking profile recorded for %s", algo.Name)
			}
			ck := check.Wrap(algo.New(n, xrand.New(seed).Split("switch", 0)), check.Options{})
			deliveries(ck, pat, seed, slots)
			if got := ck.Profile(); !strings.HasPrefix(got, want) {
				t.Errorf("profile = %q, want prefix %q", got, want)
			}
			if err := ck.Err(); err != nil {
				t.Fatalf("clean %s run flagged: %v", algo.Name, err)
			}
		})
	}
}
