package hw

import "testing"

func TestLatencyModel(t *testing.T) {
	m := LatencyModel{ComparatorDelayPs: 100, FeedbackDelayPs: 50}
	// N=16: depth 4 each side -> 2*4*100 + 50 = 850 ps.
	if got := m.RoundLatencyPs(16); got != 850 {
		t.Fatalf("RoundLatencyPs(16) = %d", got)
	}
	// Serial: 2*15*100 + 50 = 3050 ps.
	if got := m.SerialRoundLatencyPs(16); got != 3050 {
		t.Fatalf("SerialRoundLatencyPs(16) = %d", got)
	}
	if got := m.SlotLatencyPs(16, 2); got != 1700 {
		t.Fatalf("SlotLatencyPs = %v", got)
	}
	if TreeDepth(16) != 4 || TreeDepth(1) != 0 || TreeDepth(17) != 5 {
		t.Fatal("TreeDepth wrong")
	}
}

func TestLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad N did not panic")
		}
	}()
	DefaultLatency.RoundLatencyPs(0)
}
