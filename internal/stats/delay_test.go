package stats

import (
	"testing"

	"voqsim/internal/cell"
)

// copyOf is the delivery of one copy of packet id, which arrived in
// slot arrival with the given fanout, to output out in slot slot; done
// marks the packet's final copy.
func copyOf(id cell.PacketID, arrival int64, fanout int32, out int, slot int64, done bool) cell.Delivery {
	return cell.Delivery{ID: id, Out: out, Slot: slot, Arrival: arrival, Fanout: fanout, Done: done}
}

func TestDelaySingleUnicast(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Deliver(copyOf(1, 10, 1, 3, 12, true))
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
	dt.Deliver(copyOf(7, 5, 3, 0, 5, false))
	dt.Deliver(copyOf(7, 5, 3, 1, 6, false))
	if dt.Completed() != 0 {
		t.Fatal("packet completed early")
	}
	dt.Deliver(copyOf(7, 5, 3, 2, 9, true))
	if dt.Completed() != 1 {
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
	dt.Deliver(copyOf(1, 99, 1, 0, 150, true))  // pre-window: ignored entirely
	dt.Deliver(copyOf(2, 100, 1, 0, 100, true)) // in-window
	if dt.Completed() != 1 || dt.DeliveredCopies() != 1 {
		t.Fatalf("warmup leak: completed=%d copies=%d", dt.Completed(), dt.DeliveredCopies())
	}
	if dt.InputOriented().Mean() != 1 {
		t.Fatalf("delay = %v", dt.InputOriented().Mean())
	}
}

// TestDelayOverDeliveryPanics: the tracker keeps no per-packet state,
// so it completes a packet on exactly the copies the switch marks Done
// and cannot see a copy delivered twice; the invariant checker
// convicts that (check.TestDoneMutantsCaught).
func TestDelayOverDeliveryPanics(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Deliver(copyOf(1, 0, 1, 0, 0, true))
	dt.Deliver(copyOf(2, 0, 2, 0, 0, false))
	dt.Deliver(copyOf(2, 0, 2, 1, 0, true))
	if dt.Completed() != 2 || dt.DeliveredCopies() != 3 {
		t.Fatalf("Completed = %d, DeliveredCopies = %d", dt.Completed(), dt.DeliveredCopies())
	}
}

func TestDelayBeforeArrivalPanics(t *testing.T) {
	dt := NewDelayTracker(0)
	defer func() {
		if recover() == nil {
			t.Fatal("time-travelling delivery did not panic")
		}
	}()
	dt.Deliver(copyOf(1, 10, 1, 0, 8, true))
}

func TestDelayHistogramsPopulated(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Deliver(copyOf(1, 0, 2, 0, 0, false))
	dt.Deliver(copyOf(1, 0, 2, 1, 7, true))
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

func TestDelayTrackerClassBreakdown(t *testing.T) {
	dt := NewDelayTracker(0)
	dt.Deliver(copyOf(1, 0, 1, 3, 2, true))  // unicast
	dt.Deliver(copyOf(2, 0, 3, 0, 0, false)) // multicast
	dt.Deliver(copyOf(2, 0, 3, 1, 1, false))
	dt.Deliver(copyOf(2, 0, 3, 2, 5, true))
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
