package switchsim

import (
	"fmt"
	"runtime"
	"testing"

	"voqsim/internal/cell"
)

// TestSlotZeroAllocs guards the whole steady-state slot loop — traffic
// generation, preprocessing, arbitration, transfer, delivery recording
// and statistics, with obs/check off — at the sizes BENCH_e2e.json
// quotes. The arena, the pooled packets and the tracker's in-flight
// window make a warm slot allocation-free; any regression here puts GC
// pressure back into every sweep.
func TestSlotZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, tc := range []struct {
		n    int
		fast bool
	}{
		{64, false}, {128, false}, {256, false},
		{64, true}, {256, true},
	} {
		name := fmt.Sprintf("n=%d", tc.n)
		if tc.fast {
			name = "fast/" + name
		}
		tc := tc
		t.Run(name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) { benchSlot(b, tc.n, tc.fast) })
			if a := res.AllocsPerOp(); a != 0 {
				t.Fatalf("steady-state slot at %s: %d allocs/op (%d B/op), want 0",
					name, a, res.AllocedBytesPerOp())
			}
			// A handful of bytes/op can legitimately appear from amortized
			// ring growth while the backlog still drifts; whole allocations
			// per op may not. Keep a small ceiling on the bytes too so a
			// genuine per-slot allocation cannot hide below 1 alloc/op.
			if bytes := res.AllocedBytesPerOp(); bytes > 16 {
				t.Fatalf("steady-state slot at %s: %d B/op, want <= 16", name, bytes)
			}
		})
	}
}

// TestSlotZeroAllocs1024 extends the guard to the widest quoted size
// with runtime.AllocsPerRun over warmed runners — cheaper than a full
// adaptive benchmark at N=1024, where a single warm-up is already
// millions of cell operations.
func TestSlotZeroAllocs1024(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, fast := range []bool{false, true} {
		// N=1024 needs a longer warm-up than the benchmark default: the
		// backlog (and with it the packet pool and tracker tables) keeps
		// growing past 2000 slots, and every slot of drift allocates.
		const n, measured, warm = 1024, 200, 12_000
		r := slotBenchRunner(n, warm+measured+1, fast)
		for slot := int64(0); slot < warm; slot++ {
			r.tick(slot, 0)
		}
		slot := int64(warm)
		avg := testing.AllocsPerRun(measured, func() {
			r.tick(slot, 0)
			slot++
		})
		if avg != 0 {
			t.Fatalf("steady-state slot at n=1024 (fast=%v): %.2f allocs/op, want 0", fast, avg)
		}
	}
}

// TestDrawAheadZeroAllocs extends the guard to a draw-ahead Run: over
// a warmed window, producer and consumer together — batch hand-offs
// included — allocate nothing, and the batches, allocated once in New,
// stay within their footprint budget (DESIGN.md §17).
func TestDrawAheadZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	const n = 64
	warm := warmSlotsFor(n)
	measured := warm + 3000
	r := slotBenchRunnerWith(n, Config{Slots: measured + 1, DrawAhead: true})

	var before, after runtime.MemStats
	var seen int
	r.OnDelivery(func(d cell.Delivery) {
		switch {
		case seen == 0 && d.Slot >= warm:
			runtime.ReadMemStats(&before)
			seen++
		case seen == 1 && d.Slot >= measured:
			runtime.ReadMemStats(&after)
			seen++
		}
	})
	r.Run("fifoms")
	if seen != 2 {
		t.Fatalf("window [%d,%d) never closed", warm, measured)
	}
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Fatalf("%d mallocs over %d warmed draw-ahead slots, want 0", d, measured-warm)
	}

	for _, tc := range []struct{ n, limit int }{
		{16, 256 << 10}, {64, 256 << 10}, {1024, 1 << 20},
	} {
		total := 0
		for _, b := range slotBenchRunnerWith(tc.n, Config{DrawAhead: true}).batches {
			total += 4*cap(b.ends) + 4*len(b.inputs) + 8*len(b.words) + 8*b.stride
		}
		if total > tc.limit {
			t.Errorf("draw-ahead batches at n=%d hold %d bytes, want <= %d", tc.n, total, tc.limit)
		}
	}
}
