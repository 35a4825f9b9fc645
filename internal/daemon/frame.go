// Package daemon turns the simulator core into voqd, a long-running
// UDP packet-switching service (docs/OPERATIONS.md): one ingress
// socket per input port feeds the arena-backed multicast VOQ switch on
// a fixed-tick slot clock, FIFOMS (or any core-family scheduler)
// arbitrates, and every delivered copy egresses to the subscribers of
// its output port. The package also provides the matching load
// generator (RunLoad) used by cmd/voqload and the loopback tests.
//
// The daemon reuses the repo's substrates unchanged: the switch and
// arbiter from internal/core via switchsim.LiveRunner, the obs metrics
// registry over HTTP, internal/snap checkpoints as crash recovery, and
// traffic patterns as load models. Behaviour under overload is
// explicit and counted — see the overload policy in Config.
package daemon

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"voqsim/internal/wire"
)

// Wire format (docs/OPERATIONS.md has the operator-facing spec). All
// multi-byte integers are big-endian. Every frame starts with the
// four-byte header 'V' 'Q' version kind; one UDP datagram carries
// exactly one frame, and trailing bytes are a decode error so that a
// truncated or concatenated datagram can never be half-understood.
const (
	// FrameVersion is the wire format version in every frame header.
	FrameVersion = 1
	// KindData is an ingress frame: client -> voqd input port.
	KindData = 1
	// KindDelivery is an egress frame: voqd -> output subscriber.
	KindDelivery = 2

	// MaxFramePorts bounds the destination universe a frame may
	// declare; it matches the largest switch the kernels are sized for.
	MaxFramePorts = 4096
	// MaxPayload bounds the opaque payload of one frame, keeping the
	// whole datagram under a conservative MTU.
	MaxPayload = 1400

	// deliveryLast is the flags bit marking the packet's final copy,
	// after which no destination is owed (cell.Delivery.Done), under
	// every algorithm.
	deliveryLast = 0x01
)

// Data is a parsed ingress frame: one fixed-size packet entering input
// port Src, addressed to the outputs set in Bitmap. Seq is a
// sender-assigned sequence number echoed on every delivered copy, so
// receivers can account losses without daemon-side state. Bitmap and
// Payload alias the datagram buffer; copy them before reusing it.
type Data struct {
	Src     int
	Seq     uint64
	NPorts  int
	Bitmap  []byte // ceil(NPorts/8) bytes, bit i of byte i>>3 (LSB first) = output i
	Payload []byte
}

// Delivery is a parsed egress frame: one copy of packet (Src, Seq)
// crossed the fabric to output Out. Arrival and Slot are the daemon's
// slot clock at admission and at delivery, so the per-copy delay in
// slots is Slot-Arrival+1, exactly the simulator's convention. Last
// marks the copy that completed the packet. Payload aliases the
// datagram buffer.
type Delivery struct {
	Src     int
	Out     int
	Seq     uint64
	Arrival int64
	Slot    int64
	Last    bool
	Payload []byte
}

// bitmapLen returns the on-wire destination bitmap size for an n-port
// universe.
func bitmapLen(n int) int { return (n + 7) / 8 }

// FrameKind sniffs the header of a datagram and returns its kind byte
// (KindData or KindDelivery) without parsing the body.
func FrameKind(b []byte) (byte, error) {
	r := wire.NewBigEndian(b)
	r.Header("VQ", 1, FrameVersion)
	kind := r.U8()
	if kind != KindData && kind != KindDelivery {
		r.Failf("unknown frame kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("daemon: %w", err)
	}
	return kind, nil
}

// AppendData encodes a data frame onto dst and returns the extended
// slice. bitmap must be exactly bitmapLen(nports) bytes with no bit
// set at or beyond nports; AppendData panics on caller errors the
// sender controls (sizes), because they are bugs, not input.
func AppendData(dst []byte, src int, seq uint64, nports int, bitmap, payload []byte) []byte {
	if nports <= 0 || nports > MaxFramePorts {
		panic(fmt.Sprintf("daemon: AppendData with %d ports", nports))
	}
	if src < 0 || src >= nports {
		panic(fmt.Sprintf("daemon: AppendData source %d outside %d-port universe", src, nports))
	}
	if len(bitmap) != bitmapLen(nports) {
		panic(fmt.Sprintf("daemon: AppendData bitmap is %d bytes, want %d", len(bitmap), bitmapLen(nports)))
	}
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("daemon: AppendData payload %d exceeds %d", len(payload), MaxPayload))
	}
	dst = append(dst, 'V', 'Q', FrameVersion, KindData)
	dst = binary.BigEndian.AppendUint16(dst, uint16(src))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(nports))
	dst = append(dst, bitmap...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return append(dst, payload...)
}

// ParseData decodes a data frame. The returned views alias b. Hostile
// input errors, never panics (DESIGN.md §10): besides the reader's
// bounds, the declared universe is validated, padding bits beyond
// NPorts must be zero (a frame claiming outputs outside its own
// universe is malformed, not truncated), and the destination set must
// not be empty.
func ParseData(b []byte) (Data, error) {
	r := wire.NewBigEndian(b)
	r.Header("VQ", 1, FrameVersion)
	if kind := r.U8(); kind != KindData {
		r.Failf("got a kind %d frame", kind)
	}
	d := Data{Src: int(r.U16()), Seq: r.U64(), NPorts: int(r.U16())}
	d.Bitmap = r.Bytes(bitmapLen(d.NPorts))
	d.Payload = r.Sized(int(r.U16()), 0, MaxPayload)
	switch pad := len(d.Bitmap)*8 - d.NPorts; {
	case d.NPorts == 0 || d.NPorts > MaxFramePorts:
		r.Failf("declares %d ports", d.NPorts)
	case d.Src >= d.NPorts:
		r.Failf("source %d outside %d-port universe", d.Src, d.NPorts)
	case pad > 0 && d.Bitmap[len(d.Bitmap)-1]>>(8-pad) != 0:
		r.Failf("sets destination bits beyond %d ports", d.NPorts)
	case isZero(d.Bitmap):
		r.Failf("empty destination set")
	}
	if err := r.Done(); err != nil {
		return Data{}, fmt.Errorf("daemon: data frame: %w", err)
	}
	return d, nil
}

func isZero(b []byte) bool {
	for _, by := range b {
		if by != 0 {
			return false
		}
	}
	return true
}

// ForEachDest calls fn with every output set in the frame's bitmap,
// in increasing order.
func (d Data) ForEachDest(fn func(out int)) {
	for i, by := range d.Bitmap {
		for by != 0 {
			out := i*8 + bits.TrailingZeros8(by)
			if out < d.NPorts {
				fn(out)
			}
			by &= by - 1
		}
	}
}

// Fanout returns the number of destinations set in the frame's bitmap.
func (d Data) Fanout() int {
	n := 0
	d.ForEachDest(func(int) { n++ })
	return n
}

// AppendDelivery encodes an egress frame onto dst and returns the
// extended slice.
func AppendDelivery(dst []byte, src, out int, seq uint64, arrival, slot int64, last bool, payload []byte) []byte {
	if src < 0 || src >= MaxFramePorts || out < 0 || out >= MaxFramePorts {
		panic(fmt.Sprintf("daemon: AppendDelivery ports (%d,%d) out of range", src, out))
	}
	if arrival < 0 || slot < arrival {
		panic(fmt.Sprintf("daemon: AppendDelivery slots arrival=%d slot=%d", arrival, slot))
	}
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("daemon: AppendDelivery payload %d exceeds %d", len(payload), MaxPayload))
	}
	dst = append(dst, 'V', 'Q', FrameVersion, KindDelivery)
	dst = binary.BigEndian.AppendUint16(dst, uint16(src))
	dst = binary.BigEndian.AppendUint16(dst, uint16(out))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(arrival))
	dst = binary.BigEndian.AppendUint64(dst, uint64(slot))
	var flags byte
	if last {
		flags |= deliveryLast
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return append(dst, payload...)
}

// ParseDelivery decodes an egress frame; the payload view aliases b.
// Hostile input errors, never panics (DESIGN.md §10).
func ParseDelivery(b []byte) (Delivery, error) {
	r := wire.NewBigEndian(b)
	r.Header("VQ", 1, FrameVersion)
	if kind := r.U8(); kind != KindDelivery {
		r.Failf("got a kind %d frame", kind)
	}
	d := Delivery{Src: int(r.U16()), Out: int(r.U16()), Seq: r.U64(), Arrival: r.NonNeg(), Slot: r.NonNeg()}
	flags := r.U8()
	d.Last = flags&deliveryLast != 0
	d.Payload = r.Sized(int(r.U16()), 0, MaxPayload)
	switch {
	case d.Src >= MaxFramePorts || d.Out >= MaxFramePorts:
		r.Failf("ports (%d,%d) out of range", d.Src, d.Out)
	case d.Slot < d.Arrival:
		r.Failf("delivered at slot %d before arrival %d", d.Slot, d.Arrival)
	case flags&^deliveryLast != 0:
		r.Failf("unknown flags %#02x", flags)
	}
	if err := r.Done(); err != nil {
		return Delivery{}, fmt.Errorf("daemon: delivery frame: %w", err)
	}
	return d, nil
}
