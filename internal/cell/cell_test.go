package cell

import (
	"strings"
	"testing"
	"unsafe"

	"voqsim/internal/destset"
)

func newPacket(id PacketID, in int, t int64, dests ...int) *Packet {
	return &Packet{ID: id, Input: in, Arrival: t, Dests: destset.FromMembers(8, dests...)}
}

func TestFanout(t *testing.T) {
	p := newPacket(1, 0, 5, 1, 3, 7)
	if p.Fanout() != 3 {
		t.Fatalf("Fanout = %d", p.Fanout())
	}
}

func TestPacketString(t *testing.T) {
	s := newPacket(2, 1, 9, 0).String()
	for _, want := range []string{"pkt#2", "in=1", "t=9", "{0}/8"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestDataCellServed(t *testing.T) {
	d := &DataCell{Packet: newPacket(3, 0, 0, 0, 1, 2), FanoutCounter: 3}
	if d.Served() {
		t.Fatal("first Served claimed exhaustion")
	}
	if d.Served() {
		t.Fatal("second Served claimed exhaustion")
	}
	if !d.Served() {
		t.Fatal("third Served did not claim exhaustion")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Served on exhausted cell did not panic")
		}
	}()
	d.Served()
}

func TestCopyDelayConvention(t *testing.T) {
	if got := (Delivery{Slot: 10, Arrival: 10}).CopyDelay(); got != 1 {
		t.Fatalf("same-slot delay = %d, want 1", got)
	}
	if got := (Delivery{Slot: 10, Arrival: 7}).CopyDelay(); got != 4 {
		t.Fatalf("delay = %d, want 4", got)
	}
}

func TestAddressCellSharesData(t *testing.T) {
	p := newPacket(4, 2, 3, 0, 5)
	d := &DataCell{Packet: p, FanoutCounter: p.Fanout()}
	a0 := AddressCell{TimeStamp: p.Arrival, Data: d, Output: 0}
	a5 := AddressCell{TimeStamp: p.Arrival, Data: d, Output: 5}
	if a0.Data != a5.Data {
		t.Fatal("address cells of one packet must share the data cell")
	}
	if a0.TimeStamp != a5.TimeStamp {
		t.Fatal("siblings must share the time stamp")
	}
}

// TestDeliverySize pins the delivery record at 48 bytes: Done and
// Fanout sit in the padding after Last.
func TestDeliverySize(t *testing.T) {
	if got := unsafe.Sizeof(Delivery{}); got != 48 {
		t.Fatalf("Delivery is %d bytes, want 48", got)
	}
}
