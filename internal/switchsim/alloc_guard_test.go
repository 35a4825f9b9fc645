package switchsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/fabric"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// simMallocs returns the objects the simulator allocated between two
// allocation profiles, with their stacks: those whose stack holds a
// frame of this module, leaving out the ones whose innermost frame is
// runtime.acquireSudog (TestDrawAheadZeroAllocs). The runtime's own
// goroutines — the scavenger resetting its timer, say — are not the
// simulator's.
func simMallocs(before, after []runtime.MemProfileRecord) (int64, string) {
	// A stack has one record per allocation size.
	delta := make(map[[32]uintptr]int64, len(after))
	for _, rec := range after {
		delta[rec.Stack0] += rec.AllocObjects
	}
	for _, rec := range before {
		delta[rec.Stack0] -= rec.AllocObjects
	}
	var total int64
	var stacks strings.Builder
	for stk, d := range delta {
		if d == 0 {
			continue
		}
		var names []string
		ours := false
		frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stk}).Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			names = append(names, f.Function)
			ours = ours || strings.HasPrefix(f.Function, "voqsim/") || strings.HasPrefix(f.Function, "voqsim.")
		}
		if !ours || names[0] == "runtime.acquireSudog" {
			continue
		}
		total += d
		fmt.Fprintf(&stacks, "%d x %s\n", d, strings.Join(names, " <- "))
	}
	return total, stacks.String()
}

// TestColdStartAllocs counts what the steady-state guard
// (TestSlotZeroAllocs) warms away: the first slots of a fresh run, the
// shape a short voqsim run at large N has from end to end, for each
// driver of one packet pool (cell.Pool) under FIFOMS at load 0.9. VOQ
// storage is one address-cell slab that grows by doubling (DESIGN.md
// §11), so touching a VOQ for the first time allocates nothing, and
// every pool refills 64 packets at a time; what is left is the slabs
// growing into the backlog:
//   - Runner at N = 256: 0.30 mallocs a slot, where a packet at a time
//     cost 8.36 and a private buffer per first-touched VOQ 117.03;
//   - an 8-ary fat tree, whose 80 nodes each pool their node-local
//     packets: 6.79, where a packet at a time cost 22.23;
//   - LiveRunner at N = 64: 0.14, where a packet at a time cost 1.69.
//
// The count repeats exactly at a seed, so the limits need no allowance
// for load.
func TestColdStartAllocs(t *testing.T) {
	const slots = 500
	pat := traffic.Uniform{P: 2 * 0.9 / (1 + 4), MaxFanout: 4} // load 0.9
	for _, tc := range []struct {
		name  string
		limit float64
		// fresh builds a fresh run and returns its one-slot step.
		fresh func() func(slot int64)
	}{
		{"n=256", 1, func() func(int64) {
			r := slotBenchRunner(256, slots+1, false)
			return func(slot int64) { r.tick(slot, 0) }
		}},
		{"fattree:k=8", 8, func() func(int64) {
			top, err := fabric.FatTree(8)
			if err != nil {
				t.Fatal(err)
			}
			root := xrand.New(7)
			f, err := fabric.New(top, fabric.Config{}, func(ports int, rr *xrand.Rand) fabric.Node {
				return core.NewSwitch(ports, &core.FIFOMS{}, rr)
			}, root.Split("switch", 0))
			if err != nil {
				t.Fatal(err)
			}
			r := New(f, pat, Config{Slots: slots + 1, WarmupFrac: -1, Seed: 7}, root.Split("traffic", 0))
			return func(slot int64) { r.tick(slot, 0) }
		}},
		{"live/n=64", 0.25, func() func(int64) {
			const n = 64
			l := NewLive(core.NewSwitch(n, &core.FIFOMS{}, xrand.New(7).Split("switch", 0)))
			srcs := traffic.BuildSources(pat, n, xrand.New(7).Split("traffic", 0))
			d := destset.New(n)
			return func(slot int64) {
				for in, src := range srcs {
					if !src.(traffic.IntoSource).NextInto(slot, d) {
						continue
					}
					p := l.Borrow()
					p.Dests.CopyFrom(d)
					if _, err := l.Admit(p, in, slot); err != nil {
						t.Fatal(err)
					}
				}
				l.Step(slot, nil)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := tc.fresh()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for slot := int64(0); slot < slots; slot++ {
				step(slot)
			}
			runtime.ReadMemStats(&after)
			perSlot := float64(after.Mallocs-before.Mallocs) / slots
			t.Logf("%.2f mallocs/slot", perSlot)
			if perSlot > tc.limit {
				t.Fatalf("first %d slots of a fresh %s run: %.2f mallocs/slot, want <= %g", slots, tc.name, perSlot, tc.limit)
			}
		})
	}
}

// TestDrawAheadZeroAllocs extends the guard to a draw-ahead Run: over
// a warmed window, producer and consumer together — batch hand-offs
// included — allocate nothing, and the batches, allocated once in New,
// stay within their footprint budget (DESIGN.md §17). The packet pool
// grows a 64-packet slab at a time and its free list by doubling, each
// only when the backlog reaches a new high, so the warm-up is four
// times the steady-state one: past the pool's last slab and its free
// list's last doubling at this seed.
//
// The window is read from the allocation profile, stack by stack, not
// from a malloc counter, which also counts the runtime's own
// goroutines: the scavenger, for one, grows its timer heap now and
// then. And a blocked channel receive takes an entry from the
// runtime's per-P wait-queue pool (runtime.acquireSudog), which now
// and then refills with one malloc that no program change can avoid.
// So only stacks through this module's code count, and of those only
// the ones whose innermost frame is that refill are left out: every
// allocation the simulator makes still counts.
func TestDrawAheadZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	const n = 64
	warm := 4 * warmSlotsFor(n)
	measured := warm + 3000
	r := slotBenchRunnerWith(n, Config{Slots: measured + 1, DrawAhead: true})

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// Both snapshots are taken into storage allocated up front, and
	// each after a GC, which publishes every allocation made before it.
	before := make([]runtime.MemProfileRecord, 1<<14)
	after := make([]runtime.MemProfileRecord, 1<<14)
	var nBefore, nAfter int
	var okBefore, okAfter bool
	var seen int
	// peak is the most packets the pool has handed out at once.
	var done, peak int64
	r.OnDelivery(func(d cell.Delivery) {
		if d.Done {
			done++
		}
		peak = max(peak, int64(r.nextID)-done)
		switch {
		case seen == 0 && d.Slot >= warm:
			runtime.GC()
			nBefore, okBefore = runtime.MemProfile(before, true)
			seen++
		case seen == 1 && d.Slot >= measured:
			runtime.GC()
			nAfter, okAfter = runtime.MemProfile(after, true)
			seen++
		}
	})
	r.Run("fifoms")
	if seen != 2 {
		t.Fatalf("window [%d,%d) never closed", warm, measured)
	}
	if !okBefore || !okAfter {
		t.Fatalf("allocation profile has %d/%d stacks, more than the %d recorded", nBefore, nAfter, len(after))
	}
	if d, stacks := simMallocs(before[:nBefore], after[:nAfter]); d != 0 {
		t.Fatalf("%d mallocs over %d warmed draw-ahead slots, want 0:\n%s", d, measured-warm, stacks)
	}
	// A pool refills 64 packets at a time (cell.Pool).
	if peak <= 64 {
		t.Fatalf("at most %d packets were in flight at once, want more than one pool slab", peak)
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
