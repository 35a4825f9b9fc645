// Package idwin is the in-flight table keyed by sequentially issued
// packet IDs: the delay tracker's outstanding packets, the fabric's
// live packets and its per-node copy contexts.
package idwin

import (
	"slices"

	"voqsim/internal/cell"
)

// Window maps live packet IDs to values of type T by open addressing
// over a power-of-two entry array indexed by ID bits, no probing. IDs
// are issued sequentially and retire in roughly issue order, so the
// span of live IDs stays close to the live count; while the span is
// below the table length no two live IDs can share a slot, and every
// operation is one indexed load. When the span does outgrow the table
// (a collision on insert), the table doubles — the same amortized
// growth a map would pay, without its hashing or bucket chasing on the
// per-copy path. The zero value is an empty window.
type Window[T any] struct {
	entries []entry[T]
	n       int
}

type entry[T any] struct {
	id   cell.PacketID
	v    T
	live bool
}

// initialLen is the table length of the first insert, a power of two.
const initialLen = 64

// Len returns the number of live IDs.
func (w *Window[T]) Len() int { return w.n }

func (w *Window[T]) slot(id cell.PacketID) *entry[T] {
	return &w.entries[uint64(id)&uint64(len(w.entries)-1)]
}

// Lookup returns the value of live ID id, or nil. The pointer is
// invalidated by the next Ensure.
func (w *Window[T]) Lookup(id cell.PacketID) *T {
	if len(w.entries) == 0 {
		return nil
	}
	e := w.slot(id)
	if !e.live || e.id != id {
		return nil
	}
	return &e.v
}

// Ensure returns the value of id — inserting a zero one if id is not
// live, doubling the table until id has a slot of its own — and whether
// id was already live. The pointer is invalidated by the next Ensure.
func (w *Window[T]) Ensure(id cell.PacketID) (*T, bool) {
	for {
		if len(w.entries) == 0 {
			w.entries = make([]entry[T], initialLen)
		}
		e := w.slot(id)
		if e.live {
			if e.id == id {
				return &e.v, true
			}
			w.grow()
			continue
		}
		e.id, e.live = id, true // e.v is zero: never used, or cleared by Release
		w.n++
		return &e.v, false
	}
}

// Release retires id, which must be live, and drops its value.
func (w *Window[T]) Release(id cell.PacketID) {
	*w.slot(id) = entry[T]{}
	w.n--
}

// grow rehashes into a table twice as large. IDs distinct under the
// old mask stay distinct under the wider one, so the rehash itself
// cannot collide; Ensure keeps doubling until the new ID fits too.
func (w *Window[T]) grow() {
	next := make([]entry[T], 2*len(w.entries))
	mask := uint64(len(next) - 1)
	for i := range w.entries {
		if e := &w.entries[i]; e.live {
			next[uint64(e.id)&mask] = *e
		}
	}
	w.entries = next
}

// MaxSpan bounds the live-ID span — highest live ID minus lowest — that
// a snapshot may restore into one window. Two live IDs share a slot only
// while the table is no longer than their distance, so a span below
// MaxSpan keeps the table at most MaxSpan entries (160 MiB at the delay
// tracker's 40-byte entry) now and for as long as the span lasts; an
// unchecked span is unbounded: live IDs 1 and 1<<44 drive the table to
// 2^45 entries as soon as ID 1<<44+1 is issued. A run reaches 2^22 only
// by keeping one packet in flight while four million younger ones are
// issued: at N = 1024 and load 0.9 that is at least 4,500 slots of one
// packet's sojourn (unicast, the most IDs a slot), where the
// benchmark's N = 1024 workload delays a packet 12 slots on average.
const MaxSpan = 1 << 22

// Span is the range of the IDs a snapshot load has restored into one
// window so far. The zero value is empty.
type Span struct {
	lo, hi cell.PacketID
	any    bool
}

// Admit widens the span to id and reports whether it is still below
// MaxSpan.
func (s *Span) Admit(id cell.PacketID) bool {
	if !s.any {
		s.lo, s.hi, s.any = id, id, true
	}
	s.lo, s.hi = min(s.lo, id), max(s.hi, id)
	return uint64(s.hi-s.lo) < MaxSpan // the true difference, even across zero
}

// Ascending visits the live IDs in ascending order. It allocates (the
// sorted ID list) and is for snapshots and inspectors, never per slot.
func (w *Window[T]) Ascending(fn func(id cell.PacketID, v *T)) {
	ids := make([]cell.PacketID, 0, w.n)
	for i := range w.entries {
		if w.entries[i].live {
			ids = append(ids, w.entries[i].id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(id, &w.slot(id).v)
	}
}
