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
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, n := range []int{64, 256, 1024} {
		res := testing.Benchmark(func(b *testing.B) { benchMatch(b, n, "uniform", &core.FIFOMS{}) })
		if a := res.AllocsPerOp(); a != 0 {
			t.Fatalf("FIFOMS match n=%d with tracing disabled: %d allocs/op (%d B/op), want 0",
				n, a, res.AllocedBytesPerOp())
		}
	}
}

// TestReferenceMatchAllocsScratchOnly bounds what the reference kernel
// allocates: it makes its four per-call scratch slices afresh on every
// Match by design, and nothing that grows with the matching work — the
// "new vs reference" column of BENCH_fifoms.json would measure the
// garbage collector otherwise. Covers the sizes the satellite
// benchmarks quote.
func TestReferenceMatchAllocsScratchOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, n := range []int{64, 128} {
		res := testing.Benchmark(func(b *testing.B) { benchMatch(b, n, "uniform", oracle.New()) })
		if a := res.AllocsPerOp(); a > 4 {
			t.Fatalf("reference match n=%d: %d allocs/op (%d B/op), want its 4 scratch slices",
				n, a, res.AllocedBytesPerOp())
		}
	}
}

// TestMatchZeroAllocsTracingEnabled pins the enabled path's per-slot
// cost model from DESIGN.md §8: the ring buffer and metric handles are
// allocated at attach time, so steady-state emission itself must not
// allocate either (in flight-recorder mode, where nothing streams to a
// sink).
func TestMatchZeroAllocsTracingEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	res := testing.Benchmark(func(b *testing.B) {
		arb := &core.FIFOMS{}
		s := loadedMatchSwitch(64, "uniform", arb)
		s.SetObserver(&obs.Observer{
			Trace:   obs.NewTracer(obs.DefaultTracerCap),
			Metrics: obs.NewRegistry(),
		})
		r := xrand.New(11)
		m := core.NewMatching(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Clear()
			arb.Match(s, 100, r, m)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("FIFOMS match with tracing enabled: %d allocs/op (%d B/op), want 0",
			a, res.AllocedBytesPerOp())
	}
}
