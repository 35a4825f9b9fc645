// Package cell defines the packet and cell model shared by every
// switch architecture in the simulator.
//
// The paper's central data-structure idea (Section II) is to split a
// fixed-size packet into two kinds of cells:
//
//   - a DataCell holding the payload once, plus a fanoutCounter of
//     destinations still to be served, and
//   - one AddressCell per destination, holding the arrival time stamp
//     and a pointer to the data cell.
//
// This package defines those two cell types together with the Packet
// record produced by traffic generators and the Delivery records the
// switches emit, so that traffic sources, schedulers and the statistics
// pipeline agree on one vocabulary.
package cell

import (
	"fmt"

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

// PayloadSize is the fixed cell payload in bytes, used only for
// buffer-space accounting in reports (a standard ATM-like 64-byte
// cell). Scheduling never depends on it.
const PayloadSize = 64

// AddressCellSize is the storage cost of one address cell in bytes:
// a time stamp and a pointer (Section IV.B: "the data structure of an
// address cell only includes an integer field and a pointer field, and
// a small constant number of bytes should be sufficient").
const AddressCellSize = 16

// DataCell is the single stored copy of a packet's payload inside an
// input port buffer (paper Table: "DataCell { dataContent;
// fanoutCounter }"). FanoutCounter counts destinations not yet served;
// when it reaches zero the cell's buffer space is reclaimed.
type DataCell struct {
	Packet        *Packet
	FanoutCounter int
}

// Served records that one destination of the data cell has been
// delivered and reports whether the cell is now fully served and must
// be destroyed. Serving an already-exhausted cell is a scheduler bug
// and panics.
func (d *DataCell) Served() bool {
	if d.FanoutCounter <= 0 {
		panic("cell: Served on exhausted data cell")
	}
	d.FanoutCounter--
	return d.FanoutCounter == 0
}

// AddressCell is a place holder in one virtual output queue for one
// destination of a packet (paper: "AddressCell { timeStamp;
// pDataCell }"). TimeStamp equals the packet's arrival slot; all
// address cells of one packet share it, which is both how FIFOMS
// recognises siblings and its FIFO scheduling weight.
type AddressCell struct {
	TimeStamp int64
	Data      *DataCell
	Output    int // the destination output port this cell stands for
}

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
