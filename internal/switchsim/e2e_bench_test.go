package switchsim

// End-to-end slot-pipeline benchmarks (DESIGN.md §11): unlike the
// match-kernel matrix in internal/core, these measure a whole steady
// -state slot — traffic generation, preprocessing, arbitration,
// transfer, delivery recording and statistics — which is what a sweep
// actually pays per slot. Headline numbers are recorded in
// BENCH_e2e.json at the repo root.

import (
	"fmt"
	"testing"

	"voqsim/internal/core"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// slotBenchRunner builds a FIFOMS runner at the standard operating
// point of the end-to-end suite: uniform traffic, maxFanout 4,
// effective load 0.9 — stable under FIFOMS but busy nearly every slot.
// fast selects the relaxed-identity engine mode (DESIGN.md §12).
func slotBenchRunner(n int, slots int64, fast bool) *Runner {
	return slotBenchRunnerWith(n, Config{Slots: slots, Fast: fast})
}

// slotBenchRunnerWith is slotBenchRunner for a caller that sets more
// of the engine configuration than the run length and the mode.
func slotBenchRunnerWith(n int, cfg Config) *Runner {
	pat := traffic.Uniform{P: 2 * 0.9 / (1 + 4), MaxFanout: 4} // load 0.9
	sw := core.NewSwitch(n, &core.FIFOMS{}, xrand.New(7).Split("switch", 0))
	cfg.WarmupFrac, cfg.Seed = -1, 7
	return New(sw, pat, cfg, xrand.New(7).Split("traffic", 0))
}

// benchSlot measures the steady-state per-slot cost: the switch is
// warmed into its stationary backlog outside the timer, then each
// iteration simulates exactly one slot including statistics updates.
func benchSlot(b *testing.B, n int, fast bool) {
	b.Helper()
	warm := warmSlotsFor(n)
	r := slotBenchRunner(n, int64(b.N)+warm+1, fast)
	for slot := int64(0); slot < warm; slot++ {
		r.tick(slot, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.tick(warm+int64(i), 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
}

// warmSlotsFor is the warm-up needed for the 0.9-load backlog to reach
// steady state: 2000 slots through N=128, but the wide sizes keep
// growing their backlog (and with it the packet pool, slabs and tracker
// tables) well past that, which would bill amortized table growth to
// the steady state.
func warmSlotsFor(n int) int64 {
	switch {
	case n >= 1024:
		return 12_000
	case n >= 256:
		return 6_000
	}
	return warmSlots
}

const warmSlots = 2000

// slotBenchSizes are the sizes BenchmarkSlot runs, BENCH_e2e.json
// quotes all but 512; 256 and 1024 exercise the multi-word chunked
// kernels, and 256 and 512 sit either side of the core's switch from
// dense to ranked VOQ rows.
var slotBenchSizes = []int{16, 64, 128, 256, 512, 1024}

// BenchmarkSlot is the end-to-end steady-state slot cost at N ∈
// {16, 64, 128, 256, 512, 1024} under uniform maxFanout-4 traffic at load
// 0.9, in the bit-exact default and under fast/ in the
// relaxed-identity fast mode.
func BenchmarkSlot(b *testing.B) {
	for _, n := range slotBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSlot(b, n, false) })
	}
	for _, n := range slotBenchSizes {
		b.Run(fmt.Sprintf("fast/n=%d", n), func(b *testing.B) { benchSlot(b, n, true) })
	}
}
