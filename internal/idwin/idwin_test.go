package idwin

import (
	"math/rand"
	"slices"
	"testing"

	"voqsim/internal/cell"
)

// TestWindowMatchesMap holds the window to a plain map under random
// ensure / lookup / release schedules. IDs are issued sequentially as
// the engine issues them; retirement is mostly oldest-first, with one
// early packet pinned live throughout, so the live-ID span outgrows
// any table sized to the live count and inserts must rehash; a last
// insert far ahead of the pinned ID needs several doublings at once.
func TestWindowMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var w Window[int64]
	model := map[cell.PacketID]int64{}
	var order []cell.PacketID // live IDs in issue order, the pinned one excluded
	next := cell.PacketID(1)

	verify := func(step int) {
		t.Helper()
		if w.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model holds %d", step, w.Len(), len(model))
		}
		var got, want []cell.PacketID
		w.Ascending(func(id cell.PacketID, v *int64) {
			got = append(got, id)
			if *v != model[id] {
				t.Fatalf("step %d: walk reads %d at id %d, model says %d", step, *v, id, model[id])
			}
		})
		for id := range model {
			want = append(want, id)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: walk visited %v, model holds %v", step, got, want)
		}
	}

	const pinned = cell.PacketID(3)
	for step := 0; step < 4000; step++ {
		switch op := r.Intn(10); {
		case op < 4: // issue the next ID
			id := next
			next++
			v, dup := w.Ensure(id)
			if dup || *v != 0 {
				t.Fatalf("step %d: fresh id %d reported dup=%v value %d", step, id, dup, *v)
			}
			*v = int64(id) * 3
			model[id] = *v
			if id != pinned {
				order = append(order, id)
			}
		case op < 5 && len(order) > 0: // ensure a live ID: found, value kept
			id := order[r.Intn(len(order))]
			v, dup := w.Ensure(id)
			if !dup || *v != model[id] {
				t.Fatalf("step %d: live id %d reported dup=%v value %d, model says %d", step, id, dup, *v, model[id])
			}
		case op < 9 && len(order) > 0: // retire: usually the oldest, sometimes any
			k := 0
			if r.Intn(4) == 0 {
				k = r.Intn(len(order))
			}
			id := order[k]
			order = slices.Delete(order, k, k+1)
			w.Release(id)
			delete(model, id)
		default: // lookups of a live, a retired and a never-issued ID
			for _, id := range []cell.PacketID{pinned, next - 1, cell.PacketID(r.Int63n(int64(next))), next + 5} {
				v := w.Lookup(id)
				want, live := model[id]
				if live != (v != nil) || (live && *v != want) {
					t.Fatalf("step %d: Lookup(%d) = %v, model says live=%v value %d", step, id, v, live, want)
				}
			}
		}
		if step%50 == 0 {
			verify(step)
		}
	}
	verify(4000)
	if len(w.entries) <= initialLen || len(w.entries) < 4*w.Len() {
		t.Fatalf("%d entries for %d live ids: the live-ID span never outgrew the table, the rehash went untested",
			len(w.entries), w.Len())
	}

	// An ID that shares the pinned one's slot at this table length and
	// the next two: one Ensure must double three times.
	was := len(w.entries)
	far := pinned + cell.PacketID(4*was)
	v, dup := w.Ensure(far)
	if dup {
		t.Fatalf("id %d, never issued, reported live", far)
	}
	*v, model[far] = -1, -1
	if len(w.entries) != 8*was {
		t.Fatalf("table went from %d to %d entries, want %d", was, len(w.entries), 8*was)
	}
	verify(4001)
}

// TestSpanAdmit pins Span's boundary: a span of MaxSpan-1 is admitted
// in either insertion order, MaxSpan is not, and neither is a span
// that only wraps around as a signed difference.
func TestSpanAdmit(t *testing.T) {
	for _, tc := range []struct {
		ids []cell.PacketID
		ok  bool
	}{
		{[]cell.PacketID{7}, true},
		{[]cell.PacketID{5, 5 + MaxSpan - 1, 9}, true},
		{[]cell.PacketID{5 + MaxSpan - 1, 9, 5}, true},
		{[]cell.PacketID{5, 5 + MaxSpan}, false},
		{[]cell.PacketID{5 + MaxSpan, 6, 5}, false},
		{[]cell.PacketID{-1 << 63, 1<<63 - 1}, false},
	} {
		var s Span
		ok := true
		for _, id := range tc.ids {
			ok = s.Admit(id)
		}
		if ok != tc.ok {
			t.Errorf("Admit over %v ends %v, want %v", tc.ids, ok, tc.ok)
		}
	}
}
