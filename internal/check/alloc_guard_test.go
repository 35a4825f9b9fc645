package check

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// benchSteadySlot drives a bare (unwrapped) FIFOMS switch through a
// steady-state arrival+schedule slot. Packet shells are pre-allocated
// and recycled exactly as in the root BenchmarkPreprocess: the periodic
// drain drops every switch-held reference before a shell is reused, so
// the loop measures the per-slot path alone.
func benchSteadySlot(b *testing.B) {
	const n = 16
	sw := core.NewSwitch(n, &core.FIFOMS{}, xrand.New(1))
	dests := destset.FromMembers(n, 1, 3, 5, 7, 9, 11, 13, 15) // fanout 8
	drain := func(cell.Delivery) {}
	var pool [n]cell.Packet
	slot := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pool[i%n]
		*p = cell.Packet{ID: cell.PacketID(i), Input: i % n, Arrival: slot, Dests: dests}
		sw.Arrive(p)
		sw.Step(slot, drain)
		slot++
		if i%n == n-1 {
			b.StopTimer()
			for sw.BufferedCells() > 0 {
				sw.Step(slot, drain)
				slot++
			}
			b.StartTimer()
		}
	}
}

// TestUncheckedSlotZeroAllocs guards the checker's disabled cost: a
// switch that is simply not wrapped must keep the allocation-free
// per-slot path it had before the checker existed. Wiring the checker
// into switchsim/cmd is all opt-in indirection (NewChecked, -check), so
// the default path here is the same code the tier-1 benchmarks run —
// this pin fails if checker support ever leaks an allocation into it.
func TestUncheckedSlotZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	res := testing.Benchmark(benchSteadySlot)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state Arrive+Step without checker: %d allocs/op (%d B/op), want 0",
			a, res.AllocedBytesPerOp())
	}
}
