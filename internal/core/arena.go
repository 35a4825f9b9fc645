package core

import (
	"fmt"
	"math"
	"math/bits"

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
//     here holds a pointer, so neither records nor cells ever enter the
//     collector's scan set.
//   - Each input keeps one row of VOQ records. Up to denseMaxPorts
//     ports a row holds a record for every output, N² records in all
//     (512 KiB at N = 256). Above it a row holds only the input's
//     non-empty VOQs, in output order, so VOQ(in,out) sits at the
//     popcount of occIn below out (rank): a push onto an empty VOQ
//     opens its record and a pop that empties one closes it. The
//     occupancy bitmap is then the only index, and resident memory
//     tracks the cells and VOQs buffered, not the N² VOQs that could
//     exist.
//   - Data cells live in a struct-of-arrays slab: dPkt[i]/dFan[i] are
//     packet pointer and live fanout counter of slab entry i, and
//     dFanout[i] the packet's fanout, which its deliveries carry
//     without a trip through the packet's destination set. Address
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

// denseMaxPorts is the largest switch whose rows are output-indexed.
// Above it rows are ranked: at N = 1024 the dense table is 8 MiB, and
// ranked rows cut a sw1024-mcast run's peak RSS to 0.68x with no loss
// of speed, while at N <= 256 the rank and the record shifts cost more
// than the table's cache misses (sw256-mcast-fast read 0.94x of the
// dense rows' slots/s ranked, sw64-ucast 0.74x; DESIGN.md §11).
const denseMaxPorts = 256

// rankedRowCap is a ranked row's capacity in the shared slab; a row
// that outgrows it moves out by append.
const rankedRowCap = 64

// acell is the arena's address cell: the paper's (timeStamp, pointer)
// pair with the data-cell pointer replaced by an index into the
// arena's data slab, linked to the cell queued behind it.
type acell struct {
	ts   int64 // arrival slot of the packet (the FIFOMS time stamp)
	data int32 // index into dPkt/dFan
	next int32 // cells index of the next cell back; the tail's is the head
}

// voq is one VOQ: the tail of a circular list through acell.next whose
// head, and so whose HOL stamp, is cells[tail].next. The zero value is
// an empty queue; tail means something only while size > 0. A ranked
// row holds no record for an empty queue.
type voq struct {
	tail int32
	size uint32
}

// arena is the complete mutable buffer state of one n-port switch:
// a row of VOQ records per input over one address-cell slab, the
// data-cell slab, and the cached occupancy and oldest-stamp state.
type arena struct {
	words int // destset.WordsPerRow(n), the shared occ/minMask row stride

	// rows[in] is input in's row of VOQ records and rows[in][rank(in,
	// out)] is VOQ(in,out), valid while its occupancy bit is set. Dense
	// rows have length n; a ranked row holds one record per set bit of
	// occIn[in]. The rows start carved from one slab.
	rows   [][]voq
	ranked bool

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
	dPkt    []*cell.Packet
	dFan    []int32
	dFanout []int32
	dFree   []int32

	// ModeCopied owner slab: dOwn is indexed like dPkt (and grown only
	// by allocCopy), owed[own] is live while positive.
	dOwn    []int32
	owed    []int32
	ownFree []int32
}

// newArena returns an empty arena for an n-port switch, with ranked
// rows or dense ones.
func newArena(n int, ranked bool) arena {
	a := arena{words: destset.WordsPerRow(n), ranked: ranked}
	c := n
	if ranked {
		c = min(n, rankedRowCap)
	}
	slab := make([]voq, n*c)
	a.rows = make([][]voq, n)
	for in := range a.rows {
		a.rows[in] = slab[in*c : in*c+c : in*c+c]
		if ranked {
			a.rows[in] = a.rows[in][:0]
		}
	}
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

// rank returns VOQ(in,out)'s index in rows[in]: out in a dense row,
// and in a ranked row the number of input in's non-empty VOQs below
// out — where its record sits, or would be opened.
func (a *arena) rank(in, out int) int {
	if !a.ranked {
		return out
	}
	occ := a.occIn[in*a.words : in*a.words+out>>6+1]
	k := bits.OnesCount64(occ[out>>6] & (1<<uint(out&63) - 1))
	for _, wv := range occ[:out>>6] {
		k += bits.OnesCount64(wv)
	}
	return k
}

// queue returns VOQ(in,out)'s record, or nil while the queue is empty.
func (a *arena) queue(in, out int) *voq {
	if a.occIn[in*a.words+out>>6]&(1<<uint(out&63)) == 0 {
		return nil
	}
	return &a.rows[in][a.rank(in, out)]
}

// front returns the head cell of the non-empty VOQ q.
func (a *arena) front(q *voq) acell { return a.cells[a.cells[q.tail].next] }

// each calls fn on the cells of VOQ(in,out), front to back.
func (a *arena) each(in, out int, fn func(acell)) {
	q := a.queue(in, out)
	if q == nil {
		return
	}
	idx := q.tail
	for i := uint32(0); i < q.size; i++ {
		idx = a.cells[idx].next
		fn(a.cells[idx])
	}
}

// allocData takes a slab entry from the freelist or extends the slab,
// and returns its index. fan is the entry's fanout counter, fanout the
// packet's.
func (a *arena) allocData(p *cell.Packet, fan, fanout int32) int32 {
	if k := len(a.dFree); k > 0 {
		idx := a.dFree[k-1]
		a.dFree = a.dFree[:k-1]
		a.dPkt[idx], a.dFan[idx], a.dFanout[idx] = p, fan, fanout
		return idx
	}
	if len(a.dPkt) >= math.MaxInt32 {
		panic(fmt.Sprintf("core: data slab exhausted (%d live cells)", len(a.dPkt)))
	}
	a.dPkt = append(a.dPkt, p)
	a.dFan = append(a.dFan, fan)
	a.dFanout = append(a.dFanout, fanout)
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
func (a *arena) allocCopy(p *cell.Packet, own, fanout int32) int32 {
	idx := a.allocData(p, 1, fanout)
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
