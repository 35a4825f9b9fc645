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

func TestCopyDelayConvention(t *testing.T) {
	if got := (Delivery{Slot: 10, Arrival: 10}).CopyDelay(); got != 1 {
		t.Fatalf("same-slot delay = %d, want 1", got)
	}
	if got := (Delivery{Slot: 10, Arrival: 7}).CopyDelay(); got != 4 {
		t.Fatalf("delay = %d, want 4", got)
	}
}

// TestDeliverySize pins the delivery record at 48 bytes: Done and
// Fanout sit in the padding after Last.
func TestDeliverySize(t *testing.T) {
	if got := unsafe.Sizeof(Delivery{}); got != 48 {
		t.Fatalf("Delivery is %d bytes, want 48", got)
	}
}

// TestPoolSlabsAndLIFO pins the pool's policy: an empty pool refills
// a whole slab of packets over the pool's universe, so a slab of Gets
// allocates no more than the first; a packet put back is the next one
// out; and a drained slab is followed by a fresh one.
func TestPoolSlabsAndLIFO(t *testing.T) {
	one := testing.AllocsPerRun(10, func() {
		p := NewPool(130)
		p.Get()
	})
	slab := testing.AllocsPerRun(10, func() {
		p := NewPool(130)
		for range packetSlab {
			p.Get()
		}
	})
	if slab != one {
		t.Fatalf("a slab of Gets made %.0f allocations, the first Get %.0f", slab, one)
	}
	p := NewPool(130)
	seen := map[*Packet]bool{}
	for range packetSlab {
		pkt := p.Get()
		if pkt.Dests.Universe() != 130 {
			t.Fatalf("pooled packet has universe %d, want 130", pkt.Dests.Universe())
		}
		seen[pkt] = true
	}
	if len(seen) != packetSlab {
		t.Fatalf("one slab handed out %d distinct packets, want %d", len(seen), packetSlab)
	}
	extra := p.Get()
	if seen[extra] {
		t.Fatal("a drained pool handed out a packet still in use")
	}
	p.Put(extra)
	if p.Get() != extra {
		t.Fatal("the packet put back last is not the next one out")
	}
}
