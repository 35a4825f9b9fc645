package check

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// TestUncheckedSlotZeroAllocs guards the checker's disabled cost: a
// switch that is simply not wrapped must keep the allocation-free
// per-slot path it had before the checker existed. Wiring the checker
// into switchsim/cmd is all opt-in indirection (NewChecked, -check), so
// the default path here is the same code the tier-1 benchmarks run —
// this pin fails if checker support ever leaks an allocation into it.
//
// Each run is one arrival and one step of a bare FIFOMS switch. Packet
// shells are pre-allocated and recycled exactly as in the root
// BenchmarkPreprocess: a drain after every n arrivals drops every
// switch-held reference before a shell is reused.
func TestUncheckedSlotZeroAllocs(t *testing.T) {
	const n = 16
	sw := core.NewSwitch(n, &core.FIFOMS{}, xrand.New(1))
	dests := destset.FromMembers(n, 1, 3, 5, 7, 9, 11, 13, 15) // fanout 8
	drain := func(cell.Delivery) {}
	var pool [n]cell.Packet
	i, slot := 0, int64(0)
	avg := testing.AllocsPerRun(4096, func() {
		p := &pool[i%n]
		*p = cell.Packet{ID: cell.PacketID(i), Input: i % n, Arrival: slot, Dests: dests}
		sw.Arrive(p)
		sw.Step(slot, drain)
		slot++
		if i%n == n-1 {
			for sw.BufferedCells() > 0 {
				sw.Step(slot, drain)
				slot++
			}
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Arrive+Step without checker: %.0f allocs/op, want 0", avg)
	}
}
