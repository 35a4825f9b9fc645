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
	"math"
	"math/bits"
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

	// deliveryLast is the flags bit marking the copy that exhausted
	// the packet's fanout (cell.Delivery.Last).
	deliveryLast = 0x01
	// maxSlot bounds slot fields so they always fit a non-negative
	// int64.
	maxSlot = math.MaxInt64
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
	if len(b) < 4 {
		return 0, fmt.Errorf("daemon: frame too short (%d bytes)", len(b))
	}
	if b[0] != 'V' || b[1] != 'Q' {
		return 0, fmt.Errorf("daemon: bad frame magic %#02x %#02x", b[0], b[1])
	}
	if b[2] != FrameVersion {
		return 0, fmt.Errorf("daemon: unsupported frame version %d", b[2])
	}
	if b[3] != KindData && b[3] != KindDelivery {
		return 0, fmt.Errorf("daemon: unknown frame kind %d", b[3])
	}
	return b[3], nil
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
// input errors, never panics: every length is bounds-checked, the
// declared universe is validated, padding bits beyond NPorts must be
// zero (a frame claiming outputs outside its own universe is
// malformed, not truncated), and trailing bytes are rejected.
func ParseData(b []byte) (Data, error) {
	var d Data
	kind, err := FrameKind(b)
	if err != nil {
		return d, err
	}
	if kind != KindData {
		return d, fmt.Errorf("daemon: expected data frame, got kind %d", kind)
	}
	rest := b[4:]
	if len(rest) < 2+8+2 {
		return d, fmt.Errorf("daemon: data frame header truncated (%d bytes)", len(b))
	}
	d.Src = int(binary.BigEndian.Uint16(rest))
	d.Seq = binary.BigEndian.Uint64(rest[2:])
	d.NPorts = int(binary.BigEndian.Uint16(rest[10:]))
	rest = rest[12:]
	if d.NPorts == 0 || d.NPorts > MaxFramePorts {
		return Data{}, fmt.Errorf("daemon: data frame declares %d ports", d.NPorts)
	}
	if d.Src >= d.NPorts {
		return Data{}, fmt.Errorf("daemon: data frame source %d outside %d-port universe", d.Src, d.NPorts)
	}
	bl := bitmapLen(d.NPorts)
	if len(rest) < bl+2 {
		return Data{}, fmt.Errorf("daemon: data frame bitmap truncated")
	}
	d.Bitmap = rest[:bl]
	if pad := bl*8 - d.NPorts; pad > 0 {
		if d.Bitmap[bl-1]>>(8-pad) != 0 {
			return Data{}, fmt.Errorf("daemon: data frame sets destination bits beyond %d ports", d.NPorts)
		}
	}
	empty := true
	for _, by := range d.Bitmap {
		if by != 0 {
			empty = false
			break
		}
	}
	if empty {
		return Data{}, fmt.Errorf("daemon: data frame with empty destination set")
	}
	plen := int(binary.BigEndian.Uint16(rest[bl:]))
	rest = rest[bl+2:]
	if plen > MaxPayload {
		return Data{}, fmt.Errorf("daemon: data frame payload %d exceeds %d", plen, MaxPayload)
	}
	if len(rest) != plen {
		return Data{}, fmt.Errorf("daemon: data frame payload is %d bytes, declared %d", len(rest), plen)
	}
	d.Payload = rest
	return d, nil
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
// Hostile input errors, never panics.
func ParseDelivery(b []byte) (Delivery, error) {
	var d Delivery
	kind, err := FrameKind(b)
	if err != nil {
		return d, err
	}
	if kind != KindDelivery {
		return d, fmt.Errorf("daemon: expected delivery frame, got kind %d", kind)
	}
	rest := b[4:]
	if len(rest) < 2+2+8+8+8+1+2 {
		return d, fmt.Errorf("daemon: delivery frame truncated (%d bytes)", len(b))
	}
	d.Src = int(binary.BigEndian.Uint16(rest))
	d.Out = int(binary.BigEndian.Uint16(rest[2:]))
	d.Seq = binary.BigEndian.Uint64(rest[4:])
	arr := binary.BigEndian.Uint64(rest[12:])
	slot := binary.BigEndian.Uint64(rest[20:])
	flags := rest[28]
	plen := int(binary.BigEndian.Uint16(rest[29:]))
	rest = rest[31:]
	if d.Src >= MaxFramePorts || d.Out >= MaxFramePorts {
		return Delivery{}, fmt.Errorf("daemon: delivery frame ports (%d,%d) out of range", d.Src, d.Out)
	}
	if arr > maxSlot || slot > maxSlot {
		return Delivery{}, fmt.Errorf("daemon: delivery frame slot overflow")
	}
	d.Arrival, d.Slot = int64(arr), int64(slot)
	if d.Slot < d.Arrival {
		return Delivery{}, fmt.Errorf("daemon: delivery frame delivered at slot %d before arrival %d", d.Slot, d.Arrival)
	}
	if flags&^deliveryLast != 0 {
		return Delivery{}, fmt.Errorf("daemon: delivery frame with unknown flags %#02x", flags)
	}
	d.Last = flags&deliveryLast != 0
	if plen > MaxPayload {
		return Delivery{}, fmt.Errorf("daemon: delivery frame payload %d exceeds %d", plen, MaxPayload)
	}
	if len(rest) != plen {
		return Delivery{}, fmt.Errorf("daemon: delivery frame payload is %d bytes, declared %d", len(rest), plen)
	}
	d.Payload = rest
	return d, nil
}
