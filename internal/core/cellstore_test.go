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
// partial bitmap word, the two-word layout and, at n = 300, ranked
// rows (arena.go): there one input takes a broadcast burst, so its row
// outgrows rankedRowCap, and the store is drained to empty at the end,
// which must close every record it opened.
func TestCellStoreMatchesModel(t *testing.T) {
	for _, n := range []int{1, 2, 9, 65, 300} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := xrand.New(uint64(40 + n))
			s := NewSwitch(n, &FIFOMS{}, xrand.New(1))
			model := make([]fifoq.Queue[modelCell], n*n)
			live, peak := 0, 0 // buffered cells now, and their peak
			stamp := int64(0)
			dests := destset.New(n)
			// Ranked sizes draw sparse destination sets: n²-cell backlogs
			// would only slow the checks down.
			pDest := 0.4
			if s.ranked {
				pDest = 3 / float64(n)
			}

			// push queues one packet: the same fresh stamp on a random
			// destination subset of one input, so argmin sets tie the way
			// multicast makes them. Every cell gets a private data entry,
			// which gives the accessors a distinct value to report.
			var pushTo func(in int)
			push := func() {
				dests.Clear()
				dests.RandomBernoulli(r, pDest)
				pushTo(r.Intn(n))
			}
			pushTo = func(in int) {
				stamp++
				dests.ForEach(func(out int) {
					p := &cell.Packet{ID: cell.PacketID(stamp), Input: in, Arrival: stamp}
					data := s.arena.allocData(p, 1, 1)
					s.pushCell(in, out, stamp, data)
					model[in*n+out].Push(modelCell{stamp, data, p})
					live++
				})
				peak = max(peak, live)
			}
			popAt := func(qi int) {
				want := model[qi].Pop()
				got := s.popCell(qi/n, qi%n)
				if got.ts != want.ts || got.data != want.data {
					t.Fatalf("VOQ(%d,%d) popped ts %d data %d, model says ts %d data %d",
						qi/n, qi%n, got.ts, got.data, want.ts, want.data)
				}
				s.arena.freeData(got.data)
				live--
			}
			pop := func() {
				qi := r.Intn(n * n)
				for k := 0; k < n*n && model[qi].Empty(); k++ {
					qi = (qi + 1) % (n * n)
				}
				if !model[qi].Empty() {
					popAt(qi)
				}
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
				if s.ranked && step == 20 {
					destset.FillPorts(dests.Words(), n) // a broadcast burst
					pushTo(0)
					if len(s.rows[0]) <= rankedRowCap {
						t.Fatalf("a broadcast left input 0 with %d VOQ records, want more than %d", len(s.rows[0]), rankedRowCap)
					}
				}
				verify(step)
			}
			if !s.ranked {
				return
			}
			for qi := range model {
				for !model[qi].Empty() {
					popAt(qi)
				}
				if qi%n == n-1 && qi/n%100 == 0 {
					verify(400 + qi/n)
				}
			}
			verify(400 + n)
			for in, row := range s.rows {
				if len(row) != 0 {
					t.Fatalf("drained input %d still holds %d VOQ records", in, len(row))
				}
			}
		})
	}
}

// TestRankedRowsLockstep runs identical arrivals through a switch with
// dense VOQ rows and one with ranked rows (arena.go) and holds them
// equal after every slot: the deliveries, and per VOQ its length, HOL
// stamp and HOL data reference, and per input its oldest-stamp cache.
// The sizes cover one bitmap word, two, and the five of the smallest
// size NewSwitch ranks; input 0 takes a broadcast burst, so above
// rankedRowCap ports its ranked row outgrows its place in the slab,
// and after 300 slots of arrivals both
// switches drain to empty, which must close every ranked record.
func TestRankedRowsLockstep(t *testing.T) {
	for _, n := range []int{16, 65, 300} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dense := newSwitch(n, &FIFOMS{}, xrand.New(3), false)
			ranked := newSwitch(n, &FIFOMS{}, xrand.New(3), true)
			r := xrand.New(uint64(n))
			var gotDense, gotRanked []cell.Delivery
			id := cell.PacketID(0)
			grown := false
			compare := func(slot int64) {
				t.Helper()
				if !slices.Equal(gotDense, gotRanked) {
					t.Fatalf("slot %d: dense rows delivered %v, ranked rows %v", slot, gotDense, gotRanked)
				}
				for in := range n {
					for out := range n {
						if d, k := dense.VOQLen(in, out), ranked.VOQLen(in, out); d != k {
							t.Fatalf("slot %d: VOQLen(%d,%d) dense %d, ranked %d", slot, in, out, d, k)
						}
						if d, k := dense.HOLTime(in, out), ranked.HOLTime(in, out); d != k {
							t.Fatalf("slot %d: HOLTime(%d,%d) dense %d, ranked %d", slot, in, out, d, k)
						}
						if d, k := dense.HOLDataRef(in, out), ranked.HOLDataRef(in, out); d != k {
							t.Fatalf("slot %d: HOLDataRef(%d,%d) dense %d, ranked %d", slot, in, out, d, k)
						}
					}
				}
				if !slices.Equal(dense.minHOL, ranked.minHOL) || !slices.Equal(dense.minMask, ranked.minMask) {
					t.Fatalf("slot %d: oldest-stamp caches differ between dense and ranked rows", slot)
				}
				grown = grown || len(ranked.rows[0]) > rankedRowCap
			}
			for slot := int64(0); slot < 300 || ranked.BufferedAddressCells() > 0; slot++ {
				if slot == 2000 {
					t.Fatalf("%d address cells still buffered after 1700 slots without arrivals", ranked.BufferedAddressCells())
				}
				for in := 0; in < n && slot < 300; in++ {
					d := destset.New(n)
					switch {
					case in == 0 && slot == 10:
						destset.FillPorts(d.Words(), n)
					case r.Bool(0.4): // about two copies a packet: load 0.8
						d.RandomKSubset(r, 1+r.Intn(3))
					default:
						continue
					}
					id++
					p := &cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d}
					dense.Arrive(p)
					ranked.Arrive(p)
				}
				gotDense, gotRanked = gotDense[:0], gotRanked[:0]
				dense.Step(slot, func(d cell.Delivery) { gotDense = append(gotDense, d) })
				ranked.Step(slot, func(d cell.Delivery) { gotRanked = append(gotRanked, d) })
				compare(slot)
			}
			if n > rankedRowCap && !grown {
				t.Fatalf("input 0's ranked row never outgrew %d records", rankedRowCap)
			}
			for in, row := range ranked.rows {
				if len(row) != 0 {
					t.Fatalf("drained input %d still holds %d VOQ records", in, len(row))
				}
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

// TestNewSwitchFootprint keeps a switch's O(N²) state to the dense VOQ
// table of N <= denseMaxPorts: NewSwitch makes the same number of
// allocations at every size, and everything beside the VOQ rows is at
// most rowBytes per (input, bitmap word) plus a constant. Above
// denseMaxPorts the rows are ranked and start at rankedRowCap records
// each, so nothing is O(N²) there. Per-input grant lists of capacity
// N, which the transfer once reserved, are 512 bytes per (input, word).
func TestNewSwitchFootprint(t *testing.T) {
	const rowBytes, constBytes, windows = 96, 4096, 5
	// One P and no collection while measuring: a cycle a large switch
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
		recs := n * n // dense rows
		if n > denseMaxPorts {
			recs = n * rankedRowCap
		}
		rows := uint64(recs) * uint64(unsafe.Sizeof(voq{}))
		limit := rows + uint64(rowBytes*n*destset.WordsPerRow(n)+constBytes)
		t.Logf("n=%d: %d allocations, %d bytes (VOQ rows %d, limit %d)", n, allocs, bytes, rows, limit)
		if allocs != want {
			t.Errorf("n=%d: NewSwitch made %d allocations, %d at n=1", n, allocs, want)
		}
		if bytes > limit {
			t.Errorf("n=%d: NewSwitch allocated %d bytes, over the VOQ rows' %d plus %d per (input, word) and %d",
				n, bytes, rows, rowBytes, constBytes)
		}
	}
}
