package voqsim

// Fast-mode statistical equivalence: the relaxed-identity fast path
// (DESIGN.md §12) samples the same stochastic model as the bit-exact
// default, so for every architecture its delay and throughput
// estimates must agree with the exact run up to sampling error. This
// is the fast-mode analogue of TestDeliveryStreamGolden: instead of
// hashing the delivery stream (which fast mode deliberately perturbs)
// it runs the same roster × N × seed grid twice — exact and fast
// — and requires confidence-interval overlap of the estimates.
//
// The z factor is inflated far beyond the i.i.d. value because the
// per-slot samples are autocorrelated (a backlogged slot drags its
// neighbours); the absolute floor keeps near-degenerate cells (tiny
// delays, tiny standard errors) from flagging rounding-level noise.
// The tolerances are calibrated so the recorded grid passes with
// ample margin, while a distribution bug — a biased fanout table, a
// shifted arrival rate, a dropped class of samples — shifts the means
// by many multiples of them.

import (
	"fmt"
	"testing"

	"voqsim/internal/experiment"
	"voqsim/internal/roster"
	"voqsim/internal/stats"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The equivalence grid runs at a stable operating point (load 0.6 for
// the Bernoulli cells) so the delay estimators converge within the
// grid's short runs; the golden grid's overloaded P=0.6 arrival point
// would saturate every queue and make the delay means meaningless,
// and even load 0.7 leaves eslip/wba close enough to saturation that
// runs this short are dominated by transient noise.
const fastEquivZ = 12.0

func fastEquivSlots(n int) int64 {
	if n >= 64 {
		return 4_000
	}
	return 6_000
}

// fastEquivRun executes one grid cell with the facade's exact seed
// derivation, in the exact or the fast engine mode.
func fastEquivRun(algo experiment.Algorithm, n int, seed uint64, pat traffic.Pattern, fast bool) switchsim.Results {
	sw := algo.New(n, xrand.New(seed).Split("switch", 0))
	r := switchsim.New(sw, pat,
		switchsim.Config{Slots: fastEquivSlots(n), Seed: seed, Fast: fast},
		xrand.New(seed).Split("traffic", 0))
	return r.Run(algo.Name)
}

// assertFastEquivalent applies the CI-overlap criteria to one pair of
// runs.
func assertFastEquivalent(t *testing.T, exact, fast switchsim.Results) {
	t.Helper()
	if exact.Unstable != fast.Unstable {
		t.Fatalf("stability verdict diverged: exact unstable=%v, fast unstable=%v", exact.Unstable, fast.Unstable)
	}
	delays := []struct {
		name        string
		exact, fast switchsim.Summary
	}{
		{"input delay", exact.InputDelay, fast.InputDelay},
		{"output delay", exact.OutputDelay, fast.OutputDelay},
	}
	for _, d := range delays {
		if !stats.MeansCompatible(d.exact.Mean, d.exact.StdErr, d.fast.Mean, d.fast.StdErr, fastEquivZ, 0.75) {
			t.Errorf("%s diverged: exact %.4f (se %.4f), fast %.4f (se %.4f)",
				d.name, d.exact.Mean, d.exact.StdErr, d.fast.Mean, d.fast.StdErr)
		}
	}
	if diff := exact.Throughput - fast.Throughput; diff > 0.03 || diff < -0.03 {
		t.Errorf("throughput diverged: exact %.4f, fast %.4f", exact.Throughput, fast.Throughput)
	}
}

// TestFastModeEquivalence runs the roster (internal/roster) over the
// delivery golden's sizes and seeds under Bernoulli traffic, exact
// versus fast, and checks CI overlap.
func TestFastModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-architecture grid")
	}
	for _, algo := range roster.For(roster.FastEquivalence) {
		for _, n := range deliveryGoldenSizes {
			for _, seed := range deliveryGoldenSeeds {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", algo.Name, n, seed), func(t *testing.T) {
					t.Parallel()
					pat := traffic.Bernoulli{P: 0.3, B: 2.0 / float64(n)}
					exact := fastEquivRun(algo, n, seed, pat, false)
					fast := fastEquivRun(algo, n, seed, pat, true)
					assertFastEquivalent(t, exact, fast)
				})
			}
		}
	}
}

// TestFastModeEquivalenceFamilies covers the remaining fast-source
// families (uniform, burst, mixed) on the paper's algorithm, so every
// fast sampler — alias binomial, Floyd subsets and geometric burst
// lengths — is exercised against its exact counterpart.
func TestFastModeEquivalenceFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-family grid")
	}
	const n = 16
	patterns := []traffic.Pattern{
		traffic.Uniform{P: 0.2, MaxFanout: 4},
		traffic.Burst{EOff: 40, EOn: 10, B: 2.0 / n},
		traffic.Mixed{P: 0.25, MulticastFrac: 0.5, MaxFanout: 4},
	}
	for _, pat := range patterns {
		for _, seed := range deliveryGoldenSeeds {
			t.Run(fmt.Sprintf("%s/seed=%d", pat.String(), seed), func(t *testing.T) {
				t.Parallel()
				exact := fastEquivRun(experiment.FIFOMS, n, seed, pat, false)
				fast := fastEquivRun(experiment.FIFOMS, n, seed, pat, true)
				assertFastEquivalent(t, exact, fast)
			})
		}
	}
}
