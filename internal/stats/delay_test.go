package stats

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
)

func pkt(id cell.PacketID, arrival int64, dests ...int) *cell.Packet {
	return &cell.Packet{ID: id, Input: 0, Arrival: arrival, Dests: destset.FromMembers(8, dests...)}
}

func TestDelaySingleUnicast(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(1, 10, 3))
	dt.Deliver(cell.Delivery{ID: 1, Out: 3, Slot: 12})
	if dt.Completed() != 1 {
		t.Fatalf("Completed = %d", dt.Completed())
	}
	if got := dt.InputOriented().Mean(); got != 3 {
		t.Fatalf("input-oriented = %v, want 3", got)
	}
	if got := dt.OutputOriented().Mean(); got != 3 {
		t.Fatalf("output-oriented = %v, want 3", got)
	}
}

func TestDelayMulticastSplit(t *testing.T) {
	// Fanout-3 packet arriving at slot 5, copies delivered at slots
	// 5, 6 and 9: input-oriented delay = 5 (last copy), output-oriented
	// contributions 1, 2, 5.
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(7, 5, 0, 1, 2))
	dt.Deliver(cell.Delivery{ID: 7, Out: 0, Slot: 5})
	dt.Deliver(cell.Delivery{ID: 7, Out: 1, Slot: 6})
	if dt.Completed() != 0 {
		t.Fatal("packet completed early")
	}
	if dt.InFlight() != 1 {
		t.Fatalf("InFlight = %d", dt.InFlight())
	}
	dt.Deliver(cell.Delivery{ID: 7, Out: 2, Slot: 9})
	if dt.Completed() != 1 || dt.InFlight() != 0 {
		t.Fatal("packet did not complete")
	}
	if got := dt.InputOriented().Mean(); got != 5 {
		t.Fatalf("input-oriented = %v, want 5", got)
	}
	if got, want := dt.OutputOriented().Mean(), (1.0+2.0+5.0)/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("output-oriented = %v, want %v", got, want)
	}
	if dt.DeliveredCopies() != 3 {
		t.Fatalf("DeliveredCopies = %d", dt.DeliveredCopies())
	}
}

func TestDelayWarmupExclusion(t *testing.T) {
	dt := NewDelayTracker(100)
	dt.Arrive(pkt(1, 99, 0)) // pre-window: ignored entirely
	dt.Deliver(cell.Delivery{ID: 1, Out: 0, Slot: 150})
	dt.Arrive(pkt(2, 100, 0)) // in-window
	dt.Deliver(cell.Delivery{ID: 2, Out: 0, Slot: 100})
	if dt.Completed() != 1 || dt.DeliveredCopies() != 1 {
		t.Fatalf("warmup leak: completed=%d copies=%d", dt.Completed(), dt.DeliveredCopies())
	}
	if dt.InputOriented().Mean() != 1 {
		t.Fatalf("delay = %v", dt.InputOriented().Mean())
	}
}

func TestDelayDuplicateArrivalPanics(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate arrival did not panic")
		}
	}()
	dt.Arrive(pkt(1, 0, 0))
}

func TestDelayOverDeliveryPanics(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(1, 0, 0))
	dt.Deliver(cell.Delivery{ID: 1, Out: 0, Slot: 0})
	// Second delivery of a fanout-1 packet: the packet has already been
	// removed from tracking, so the delivery is treated as unknown and
	// ignored. Deliver a *known* packet too many times instead.
	dt.Arrive(pkt(2, 0, 0, 1))
	dt.Deliver(cell.Delivery{ID: 2, Out: 0, Slot: 0})
	dt.Deliver(cell.Delivery{ID: 2, Out: 1, Slot: 0})
	if dt.Completed() != 2 {
		t.Fatalf("Completed = %d", dt.Completed())
	}
}

func TestDelayBeforeArrivalPanics(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(1, 10, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("time-travelling delivery did not panic")
		}
	}()
	dt.Deliver(cell.Delivery{ID: 1, Out: 0, Slot: 8})
}

func TestDelayHistogramsPopulated(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(1, 0, 0, 1))
	dt.Deliver(cell.Delivery{ID: 1, Out: 0, Slot: 0})
	dt.Deliver(cell.Delivery{ID: 1, Out: 1, Slot: 7})
	if dt.InputHistogram().Count() != 1 || dt.OutputHistogram().Count() != 2 {
		t.Fatal("histograms not populated")
	}
}

func TestOccupancy(t *testing.T) {
	var o Occupancy
	o.Sample([]int{0, 2, 4})
	o.Sample([]int{1, 1, 1})
	if o.Samples() != 6 {
		t.Fatalf("Samples = %d", o.Samples())
	}
	if got := o.Average(); got != 1.5 {
		t.Fatalf("Average = %v", got)
	}
	if o.Maximum() != 4 {
		t.Fatalf("Maximum = %d", o.Maximum())
	}
}

func deliveryFor(id cell.PacketID, in, out int, slot int64) cell.Delivery {
	return cell.Delivery{ID: id, In: in, Out: out, Slot: slot}
}

func TestDelayTrackerClassBreakdown(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Arrive(pkt(1, 0, 3))       // unicast
	dt.Arrive(pkt(2, 0, 0, 1, 2)) // multicast
	dt.Deliver(deliveryFor(1, 0, 3, 2))
	dt.Deliver(deliveryFor(2, 0, 0, 0))
	dt.Deliver(deliveryFor(2, 0, 1, 1))
	dt.Deliver(deliveryFor(2, 0, 2, 5))
	if got := dt.UnicastInputOriented().Mean(); got != 3 {
		t.Fatalf("unicast class mean = %v", got)
	}
	if got := dt.MulticastInputOriented().Mean(); got != 6 {
		t.Fatalf("multicast class mean = %v", got)
	}
	if dt.UnicastInputOriented().Count()+dt.MulticastInputOriented().Count() != dt.InputOriented().Count() {
		t.Fatal("class counts do not partition completions")
	}
}
