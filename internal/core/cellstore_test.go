package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/fifoq"
	"voqsim/internal/xrand"
)

// modelCell is what the model remembers of one pushed address cell.
type modelCell struct {
	ts   int64
	data int32
	pkt  *cell.Packet
}

// visit is one ForEachBuffered callback: the VOQ and the packet seen.
type visit struct {
	qi  int
	pkt *cell.Packet
}

// TestCellStoreMatchesModel drives the arena's address-cell store —
// pushCell and popCell — with random schedules and holds it to one
// plain fifoq.Queue per VOQ: pop order, lengths,
// HOL accessors, iteration order, the slab length and every incremental
// cache. Sizes cover the single VOQ, the smallest list handling, a
// partial bitmap word and the two-word layout.
func TestCellStoreMatchesModel(t *testing.T) {
	for _, n := range []int{1, 2, 9, 65} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := xrand.New(uint64(40 + n))
			s := NewSwitch(n, &FIFOMS{}, xrand.New(1))
			model := make([]fifoq.Queue[modelCell], n*n)
			live, peak := 0, 0 // buffered cells now, and their peak
			stamp := int64(0)
			dests := destset.New(n)

			// push queues one packet: the same fresh stamp on a random
			// destination subset of one input, so argmin sets tie the way
			// multicast makes them. Every cell gets a private data entry,
			// which gives the accessors a distinct value to report.
			push := func() {
				in := r.Intn(n)
				dests.Clear()
				dests.RandomBernoulli(r, 0.4)
				stamp++
				dests.ForEach(func(out int) {
					p := &cell.Packet{ID: cell.PacketID(stamp), Input: in, Arrival: stamp}
					data := s.arena.allocData(p, 1)
					s.pushCell(in, out, stamp, data)
					model[in*n+out].Push(modelCell{stamp, data, p})
					live++
				})
				peak = max(peak, live)
			}
			pop := func() {
				qi := r.Intn(n * n)
				for k := 0; k < n*n && model[qi].Empty(); k++ {
					qi = (qi + 1) % (n * n)
				}
				if model[qi].Empty() {
					return
				}
				want := model[qi].Pop()
				got := s.popCell(qi/n, qi%n)
				if got.ts != want.ts || got.data != want.data {
					t.Fatalf("VOQ(%d,%d) popped ts %d data %d, model says ts %d data %d",
						qi/n, qi%n, got.ts, got.data, want.ts, want.data)
				}
				s.arena.freeData(got.data)
				live--
			}
			verify := func(step int) {
				t.Helper()
				if got := s.BufferedAddressCells(); got != int64(live) {
					t.Fatalf("step %d: %d buffered address cells, model has %d", step, got, live)
				}
				// The slab grows only when its free list is empty, so it
				// holds exactly the peak of live cells plus the nil entry —
				// and so never outgrows the historical peak.
				if got := len(s.arena.cells); got != peak+1 {
					t.Fatalf("step %d: slab holds %d entries over a peak of %d live cells", step, got, peak)
				}
				for qi := range model {
					in, out, m := qi/n, qi%n, &model[qi]
					if got := s.VOQLen(in, out); got != m.Len() {
						t.Fatalf("step %d: VOQLen(%d,%d) = %d, model has %d", step, in, out, got, m.Len())
					}
					wantTS, wantRef := int64(EmptyHOL), int32(-1)
					if !m.Empty() {
						wantTS, wantRef = m.Front().ts, m.Front().data
					}
					if got := s.HOLTime(in, out); got != wantTS {
						t.Fatalf("step %d: HOLTime(%d,%d) = %d, model says %d", step, in, out, got, wantTS)
					}
					if got := s.HOLDataRef(in, out); got != wantRef {
						t.Fatalf("step %d: HOLDataRef(%d,%d) = %d, model says %d", step, in, out, got, wantRef)
					}
				}
				var want, got []visit
				for qi := range model {
					for k := 0; k < model[qi].Len(); k++ {
						want = append(want, visit{qi, model[qi].At(k).pkt})
					}
				}
				s.ForEachBuffered(func(in, out int, p *cell.Packet) { got = append(got, visit{in*n + out, p}) })
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: ForEachBuffered visited %d cells, model holds %d, or their order differs", step, len(got), len(want))
				}
				verifyCachedState(t, s)
			}

			for step := 0; step < 400; step++ {
				// Lean towards filling in the first half of each 100-step
				// phase and towards draining in the second, so queues get
				// deep and also run empty.
				fill := 0.7
				if step%100 >= 50 {
					fill = 0.3
				}
				for i := 0; i < 12; i++ {
					if r.Bool(fill) {
						push()
					} else {
						pop()
					}
				}
				verify(step)
			}
		})
	}
}

// TestArenaIsPointerFree keeps the N² state out of the collector's
// scan set: neither the per-VOQ record nor the address cell may gain a
// pointer-bearing field. The record stays 8 bytes — its tail and length,
// no copy of what the cells hold — and the address cell 16.
func TestArenaIsPointerFree(t *testing.T) {
	var walk func(t *testing.T, path string, ty reflect.Type)
	walk = func(t *testing.T, path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(t, path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(t, path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the collector would scan every one of them", path, ty.Kind())
		}
	}
	for ty, size := range map[reflect.Type]uintptr{reflect.TypeOf(voq{}): 8, reflect.TypeOf(acell{}): 16} {
		walk(t, ty.Name(), ty)
		if ty.Size() != size {
			t.Errorf("%s is %d bytes, want %d", ty.Name(), ty.Size(), size)
		}
	}
}

// TestNewSwitchFootprint keeps a switch's O(N²) state to its VOQ table:
// NewSwitch makes the same number of allocations at every size, and
// everything beside the table is at most rowBytes per (input, bitmap
// word) plus a constant. Per-input grant lists of capacity N, which
// the transfer once reserved, are 512 bytes per (input, word).
func TestNewSwitchFootprint(t *testing.T) {
	const rowBytes, constBytes, windows = 96, 4096, 5
	// One P and no collection while measuring: a cycle the 8 MiB table
	// starts would count the runtime's own allocations.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A window counts every goroutine's allocations, so one window can
	// read high; none can read low. The minimum over several windows is
	// NewSwitch's own cost, and an allocation NewSwitch makes is in all
	// of them.
	cost := func(n int) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range windows {
			arb, root := &FIFOMS{}, xrand.New(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := NewSwitch(n, arb, root)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	want, _ := cost(1)
	for _, n := range []int{64, 1024} {
		allocs, bytes := cost(n)
		table := uint64(n*n) * uint64(unsafe.Sizeof(voq{}))
		limit := table + uint64(rowBytes*n*destset.WordsPerRow(n)+constBytes)
		t.Logf("n=%d: %d allocations, %d bytes (VOQ table %d, limit %d)", n, allocs, bytes, table, limit)
		if allocs != want {
			t.Errorf("n=%d: NewSwitch made %d allocations, %d at n=1", n, allocs, want)
		}
		if bytes > limit {
			t.Errorf("n=%d: NewSwitch allocated %d bytes, over the VOQ table's %d plus %d per (input, word) and %d",
				n, bytes, table, rowBytes, constBytes)
		}
	}
}
