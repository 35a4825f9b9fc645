package core_test

import (
	"testing"

	"voqsim/internal/check/oracle"
	"voqsim/internal/core"
	"voqsim/internal/obs"
	"voqsim/internal/xrand"
)

// TestMatchZeroAllocsTracingDisabled guards the observability layer's
// disabled fast path: with no observer attached — the state every
// tier-1 benchmark runs in — the word-parallel match kernel must stay
// allocation-free, as recorded in BENCH_fifoms.json. The set covers
// the wide sizes (256, 1024) whose multi-word chunked scans never run
// at N = 64.
func TestMatchZeroAllocsTracingDisabled(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		arb := &core.FIFOMS{}
		if a := matchAllocs(loadedMatchSwitch(n, "uniform", arb), arb); a != 0 {
			t.Fatalf("FIFOMS match n=%d with tracing disabled: %.0f allocs/op, want 0", n, a)
		}
	}
}

// matchAllocs returns the allocations per Match of arb on s, as
// benchMatch runs it: the first, scratch-sizing call is not counted.
func matchAllocs(s *core.Switch, arb core.Arbiter) float64 {
	r := xrand.New(11)
	m := core.NewMatching(s.Ports())
	return testing.AllocsPerRun(200, func() {
		m.Clear()
		arb.Match(s, 100, r, m)
	})
}

// TestReferenceMatchAllocsScratchOnly bounds what the reference kernel
// allocates: it makes its four per-call scratch slices afresh on every
// Match by design, and nothing that grows with the matching work — the
// "new vs reference" column of BENCH_fifoms.json would measure the
// garbage collector otherwise. Covers the sizes the satellite
// benchmarks quote.
func TestReferenceMatchAllocsScratchOnly(t *testing.T) {
	for _, n := range []int{64, 128} {
		arb := oracle.New()
		if a := matchAllocs(loadedMatchSwitch(n, "uniform", arb), arb); a > 4 {
			t.Fatalf("reference match n=%d: %.0f allocs/op, want its 4 scratch slices", n, a)
		}
	}
}

// TestMatchZeroAllocsTracingEnabled pins the enabled path's per-slot
// cost model from DESIGN.md §8: the ring buffer and metric handles are
// allocated at attach time, so steady-state emission itself must not
// allocate either (in flight-recorder mode, where nothing streams to a
// sink).
func TestMatchZeroAllocsTracingEnabled(t *testing.T) {
	arb := &core.FIFOMS{}
	s := loadedMatchSwitch(64, "uniform", arb)
	s.SetObserver(&obs.Observer{
		Trace:   obs.NewTracer(obs.DefaultTracerCap),
		Metrics: obs.NewRegistry(),
	})
	if a := matchAllocs(s, arb); a != 0 {
		t.Fatalf("FIFOMS match with tracing enabled: %.0f allocs/op, want 0", a)
	}
}
