package core

import (
	"fmt"
	"math"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
)

// The cell arena (DESIGN.md §11) is the storage backend of the paper's
// queue structure, laid out for the per-slot loop rather than for
// pointer convenience:
//
//   - Address cells are plain 16-byte values (acell: a time stamp, a
//     data slab index and a next index) and every address cell of the
//     switch lives in one slab, cells. A VOQ is an intrusive circular
//     list through next, reached from an 8-byte record (voq) holding
//     its tail and its length, so its HOL stamp is the head cell's, one
//     hop from the tail; freed cells chain through next too. Nothing
//     here holds a pointer, so the N² records never enter the
//     collector's scan set, and resident memory tracks the cells
//     buffered, not the VOQs ever touched.
//   - Data cells live in a struct-of-arrays slab: dPkt[i]/dFan[i] are
//     packet pointer and live fanout counter of slab entry i. Address
//     cells reference entries by index, so ModeShared's one-data-cell
//     -per-packet sharing is an integer comparison, and freed entries
//     are recycled through the dFree list without touching the GC.
//   - In ModeCopied every copy has its own fanout-1 data entry, so a
//     packet outlives each of them. dOwn[i] names the owner entry of
//     data entry i, and owed[own] counts the packet's copies still
//     buffered; the switch hands the packet back when it reaches zero.
//     Owner entries recycle through ownFree like the data entries.
//   - The cached HOL state the match kernels read (occIn, occOut,
//     minHOL, minMask — see switch.go) lives here too.
//
// An arena is per-switch state with no life outside its switch: the
// Switch embeds it by value, newArena is the one way to get storage,
// and nothing outside this package can name it.

// acell is the arena's address cell: the paper's AddressCell with the
// *DataCell pointer replaced by an index into the arena's data slab,
// linked to the cell queued behind it.
type acell struct {
	ts   int64 // arrival slot of the packet (the FIFOMS time stamp)
	data int32 // index into dPkt/dFan
	next int32 // cells index of the next cell back; the tail's is the head
}

// voq is one VOQ: the tail of a circular list through acell.next whose
// head, and so whose HOL stamp, is cells[tail].next. The zero value is
// an empty queue; tail means something only while size > 0.
type voq struct {
	tail int32
	size uint32
}

// arena is the complete mutable buffer state of one n-port switch:
// n*n VOQ records over one address-cell slab, the data-cell slab, and
// the cached occupancy and oldest-stamp state.
type arena struct {
	words int // destset.WordsPerRow(n), the shared occ/minMask row stride

	// voqs[in*n+out] is VOQ(in,out), valid while the occupancy bit is
	// set.
	voqs []voq

	// Address-cell slab. Entry 0 is the nil index and never holds a
	// cell; freed entries are recycled LIFO through free and their next
	// fields, which bounds the slab length by the historical peak of
	// concurrently buffered address cells (plus the nil entry).
	cells []acell
	free  int32

	// Occupancy bitmaps, updated on every push and pop (DESIGN.md
	// § Match kernel): occIn[in*words ...] is the bitmap over outputs
	// of input in's non-empty VOQs, occOut[out*words ...] its transpose.
	occIn  []uint64
	occOut []uint64

	// Per-input oldest-stamp cache, maintained on push/pop like the
	// bitmaps above: minHOL[in] is the smallest HOL stamp over input
	// in's VOQs (emptyHOL when the input is empty) and minMask[in*words
	// ...] the bitmap of outputs whose HOL holds that stamp. FIFOMS
	// reads it to seed its request step in O(words) per input instead
	// of scanning every VOQ head.
	minHOL  []int64
	minMask []uint64

	// Data-cell slab. Entry i is live while dFan[i] > 0; freed entries
	// are recycled LIFO through dFree, which bounds the slab length by
	// the historical peak of concurrently buffered data cells.
	dPkt  []*cell.Packet
	dFan  []int32
	dFree []int32

	// ModeCopied owner slab: dOwn is indexed like dPkt (and grown only
	// by allocCopy), owed[own] is live while positive.
	dOwn    []int32
	owed    []int32
	ownFree []int32
}

// newArena returns an empty arena for an n-port switch.
func newArena(n int) arena {
	a := arena{words: destset.WordsPerRow(n)}
	a.voqs = make([]voq, n*n)
	a.cells = make([]acell, 1)
	a.occIn = make([]uint64, n*a.words)
	a.occOut = make([]uint64, n*a.words)
	a.minHOL = make([]int64, n)
	for i := range a.minHOL {
		a.minHOL[i] = emptyHOL
	}
	a.minMask = make([]uint64, n*a.words)
	return a
}

// allocCell takes an address-cell entry from the free list or extends
// the slab, and returns its index.
func (a *arena) allocCell() int32 {
	if idx := a.free; idx != 0 {
		a.free = a.cells[idx].next
		return idx
	}
	if len(a.cells) > math.MaxInt32 {
		panic(fmt.Sprintf("core: address-cell slab exhausted (%d cells)", len(a.cells)))
	}
	a.cells = append(a.cells, acell{})
	return int32(len(a.cells) - 1)
}

// front returns the head cell of VOQ qi, which must not be empty.
func (a *arena) front(qi int) acell { return a.cells[a.cells[a.voqs[qi].tail].next] }

// each calls fn on the cells of VOQ qi, front to back.
func (a *arena) each(qi int, fn func(acell)) {
	q := &a.voqs[qi]
	idx := q.tail
	for i := uint32(0); i < q.size; i++ {
		idx = a.cells[idx].next
		fn(a.cells[idx])
	}
}

// allocData takes a slab entry from the freelist or extends the slab,
// and returns its index.
func (a *arena) allocData(p *cell.Packet, fan int32) int32 {
	if k := len(a.dFree); k > 0 {
		idx := a.dFree[k-1]
		a.dFree = a.dFree[:k-1]
		a.dPkt[idx], a.dFan[idx] = p, fan
		return idx
	}
	if len(a.dPkt) >= math.MaxInt32 {
		panic(fmt.Sprintf("core: data slab exhausted (%d live cells)", len(a.dPkt)))
	}
	a.dPkt = append(a.dPkt, p)
	a.dFan = append(a.dFan, fan)
	return int32(len(a.dPkt) - 1)
}

// freeData recycles a fully served slab entry. The caller guarantees
// dFan[idx] reached zero.
func (a *arena) freeData(idx int32) {
	a.dPkt[idx] = nil
	a.dFree = append(a.dFree, idx)
}

// allocCopy takes a fanout-1 data entry for one copy of p, owned by
// owner entry own.
func (a *arena) allocCopy(p *cell.Packet, own int32) int32 {
	idx := a.allocData(p, 1)
	if int(idx) == len(a.dOwn) {
		a.dOwn = append(a.dOwn, own)
	} else {
		a.dOwn[idx] = own
	}
	return idx
}

// allocOwner takes an owner entry owing copies copies.
func (a *arena) allocOwner(copies int32) int32 {
	if k := len(a.ownFree); k > 0 {
		own := a.ownFree[k-1]
		a.ownFree = a.ownFree[:k-1]
		a.owed[own] = copies
		return own
	}
	a.owed = append(a.owed, copies)
	return int32(len(a.owed) - 1)
}

// departCopy records that one copy of owner entry own left the switch,
// and reports whether it was the packet's last buffered copy; the entry
// is then recycled.
func (a *arena) departCopy(own int32) bool {
	a.owed[own]--
	if a.owed[own] > 0 {
		return false
	}
	a.ownFree = append(a.ownFree, own)
	return true
}
