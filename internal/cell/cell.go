// Package cell defines the packet and delivery records shared by every
// switch architecture in the simulator: the Packet a traffic source
// produces, the Pool that recycles it, and the Delivery a switch emits
// for each copy, so that traffic sources, schedulers and the statistics
// pipeline agree on one vocabulary.
//
// The paper's two cell kinds (Section II) — one data cell per packet
// with a fanoutCounter, and one (timeStamp, pointer) address cell per
// destination — are not types here: they live in internal/core's cell
// arena, as a live fanout counter per data slab entry and a
// pointer-free address-cell slab (DESIGN.md §11). This package keeps
// only their sizes, for buffer-byte accounting.
package cell

import (
	"fmt"
	"slices"

	"voqsim/internal/destset"
)

// PacketID uniquely identifies a packet within one simulation run.
// IDs are assigned densely in arrival order by the traffic layer, which
// lets statistics code index per-packet state with a plain slice.
type PacketID int64

// NoPacket is the zero-like sentinel for "no packet here".
const NoPacket PacketID = -1

// Packet is an arrival produced by a traffic generator: a fixed-size
// multicast (or unicast) packet entering one input port at the start of
// a slot. The payload itself is irrelevant to scheduling behaviour and
// is not materialised; PayloadSize below records what a real switch
// would have carried so buffer-byte accounting stays meaningful.
type Packet struct {
	ID      PacketID
	Input   int          // arriving input port
	Arrival int64        // slot number the packet arrived in
	Dests   *destset.Set // destination output ports; never empty
}

// Fanout returns the number of destinations of the packet.
func (p *Packet) Fanout() int { return p.Dests.Count() }

// String renders the packet for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d in=%d t=%d dests=%v", p.ID, p.Input, p.Arrival, p.Dests)
}

// packetSlab is how many packets an empty Pool is refilled with at a
// time: a cold run pays a few allocations per slab, not three per
// packet.
const packetSlab = 64

// Pool recycles the packets of one switch, the way the paper's input
// port reclaims a data cell once its fanoutCounter reaches zero
// (Section II): Get hands a packet out and Put, registered as the
// switch's release hook, takes it back. An empty pool refills
// packetSlab packets over one destination-set slab; reuse is LIFO. A
// Pool is not safe for concurrent use. Its owner holds it by value —
// a pool is drained and fed once per packet, and a separate object
// would cost a pointer hop and a cache line of its own — and must not
// copy it once in use: a copy shares the free list.
type Pool struct {
	ports int
	free  []*Packet
}

// NewPool returns an empty pool of packets over a destination universe
// of ports.
func NewPool(ports int) Pool { return Pool{ports: ports} }

// Get returns a packet whose Dests set exists but holds arbitrary stale
// content; the caller must overwrite it completely.
func (p *Pool) Get() *Packet {
	if len(p.free) == 0 {
		pkts := make([]Packet, packetSlab)
		sets := destset.NewSlab(p.ports, packetSlab)
		p.free = slices.Grow(p.free, packetSlab)
		for i := range pkts {
			pkts[i].Dests = &sets[i]
			p.free = append(p.free, &pkts[i])
		}
	}
	k := len(p.free) - 1
	pkt := p.free[k]
	p.free = p.free[:k]
	return pkt
}

// Put hands pkt back for reuse. The caller keeps no reference to it.
func (p *Pool) Put(pkt *Packet) { p.free = append(p.free, pkt) }

// PayloadSize is the fixed cell payload in bytes, used only for
// buffer-space accounting in reports (a standard ATM-like 64-byte
// cell). Scheduling never depends on it.
const PayloadSize = 64

// AddressCellSize is the storage cost of one address cell in bytes:
// a time stamp and a pointer (Section IV.B: "the data structure of an
// address cell only includes an integer field and a pointer field, and
// a small constant number of bytes should be sufficient").
const AddressCellSize = 16

// Delivery reports that one copy of a packet crossed the fabric: the
// cell of packet ID was delivered from input In to output Out in slot
// Slot. Arrival carries the packet's arrival slot and Fanout its
// destination count, so per-copy consumers need no side table.
//
// Last marks the delivery that exhausted the data cell's fanout; in
// shared-cell mode that is the packet's final copy, in copied mode
// every copy. Done marks packet completion: it is set on the one copy
// after which no destination of the packet is still owed, the moment
// the paper's fanoutCounter reaches zero (Section II), by every
// architecture. A multi-stage fabric never sets it on a packet that
// lost a copy to a drop. Copies leave in slot order, so the Done copy
// carries the packet's input-oriented delay (Section V).
type Delivery struct {
	ID      PacketID
	In      int
	Out     int
	Slot    int64
	Arrival int64
	Last    bool
	Done    bool
	Fanout  int32
}

// CopyDelay returns the per-copy delay of the delivery, under the
// convention that a cell delivered in its arrival slot has delay 1.
func (d Delivery) CopyDelay() int64 { return d.Slot - d.Arrival + 1 }
