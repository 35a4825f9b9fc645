package switchsim_test

import (
	"fmt"
	"runtime"
	"testing"

	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// TestSlotZeroAllocs guards the whole steady-state slot loop — traffic
// generation, preprocessing, arbitration, transfer, delivery recording
// and statistics, with obs/check off — at the sizes BENCH_e2e.json
// quotes: FIFOMS at load 0.9, in the exact and the fast mode. The
// arena, the pooled packets and the tracker's in-flight window make a
// warm slot allocation-free; any regression here puts GC pressure back
// into every sweep. Every roster architecture (internal/roster) holds
// the same line at N = 16 and 64 under the same traffic at load 0.5,
// where TATRA's head-of-line blocking still leaves it stable: a
// steadily growing backlog would allocate for its growth, not for its
// slot loop.
//
// Every row has the same form: a warm-up, then testing.AllocsPerRun
// over a fixed window. The warm-up ends at the first 250-slot window
// in which the process makes no malloc at all, and at the latest after
// switchsim.WarmSlotsFor slots, the fixed warm-up the benchmarks use.
// AllocsPerRun reports whole allocations per slot, so the occasional
// slab that still doubles while the backlog drifts reads 0 and an
// allocation on every slot reads 1 or more — whatever the host's load,
// and however early that allocation starts: one made from slot 0 on
// keeps every warm-up window busy until the cap.
func TestSlotZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("long warm-up")
	}
	const measured = 1000
	type row struct {
		name  string
		n     int
		build func(slots int64) *switchsim.Runner
	}
	var rows []row
	for _, fast := range []bool{false, true} {
		sizes, prefix := []int{64, 128, 256, 1024}, ""
		if fast {
			sizes, prefix = []int{64, 256, 1024}, "fast/"
		}
		for _, n := range sizes {
			rows = append(rows, row{fmt.Sprintf("%sn=%d", prefix, n), n, func(slots int64) *switchsim.Runner {
				return switchsim.SlotBenchRunner(n, slots, fast)
			}})
		}
	}
	for _, algo := range roster.For(roster.SlotAllocs) {
		for _, n := range []int{16, 64} {
			rows = append(rows, row{fmt.Sprintf("%s/n=%d", algo.Name, n), n, func(slots int64) *switchsim.Runner {
				sw := algo.New(n, xrand.New(7).Split("switch", 0))
				pat := traffic.Uniform{P: 2 * 0.5 / (1 + 4), MaxFanout: 4} // load 0.5
				cfg := switchsim.Config{Slots: slots, WarmupFrac: -1, Seed: 7}
				return switchsim.New(sw, pat, cfg, xrand.New(7).Split("traffic", 0))
			}})
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			limit := switchsim.WarmSlotsFor(tc.n)
			// +1 for the call AllocsPerRun makes before it measures.
			r := tc.build(limit + measured + 2)
			slot := warmUp(r, limit)
			t.Logf("warm after %d slots", slot)
			avg := testing.AllocsPerRun(measured, func() {
				r.Tick(slot)
				slot++
			})
			if avg != 0 {
				t.Fatalf("steady-state slot at %s: %.0f allocs/op, want 0", tc.name, avg)
			}
		})
	}
}

// warmWindow is the span of slots a warm-up must run without a malloc.
const warmWindow = 250

// warmUp runs r from slot 0 until a warmWindow-slot window reads no
// malloc, or for limit slots, and returns the next slot to run.
func warmUp(r *switchsim.Runner, limit int64) int64 {
	var before, after runtime.MemStats
	slot := int64(0)
	for slot < limit {
		runtime.ReadMemStats(&before)
		for end := min(slot+warmWindow, limit); slot < end; slot++ {
			r.Tick(slot)
		}
		runtime.ReadMemStats(&after)
		if after.Mallocs == before.Mallocs {
			break
		}
	}
	return slot
}
