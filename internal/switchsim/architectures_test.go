package switchsim_test

import (
	"math"
	"testing"

	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// TestAllArchitecturesRunStable runs every roster architecture
// (internal/roster) at load 0.6 and checks the headline results are
// plausible.
func TestAllArchitecturesRunStable(t *testing.T) {
	pat := traffic.Bernoulli{P: 0.3, B: 0.25} // load 0.6
	for _, algo := range roster.For(roster.StableRun) {
		t.Run(algo.Name, func(t *testing.T) {
			sw := algo.New(8, xrand.New(4))
			res := switchsim.New(sw, pat, switchsim.Config{Slots: 20000, Seed: 4}, xrand.New(4)).Run(algo.Name)
			if res.Unstable {
				t.Errorf("unstable at load 0.6")
			}
			if res.Completed == 0 {
				t.Errorf("completed no packets")
			}
			if res.Throughput <= 0.3 || res.Throughput > 1.0 {
				t.Errorf("throughput %v implausible", res.Throughput)
			}
			if math.IsNaN(res.InputDelay.Mean) {
				t.Errorf("NaN delay")
			}
			// Output-oriented delay never exceeds input-oriented mean.
			if res.OutputDelay.Mean > res.InputDelay.Mean+1e-9 {
				t.Errorf("output delay %v above input delay %v", res.OutputDelay.Mean, res.InputDelay.Mean)
			}
		})
	}
}

// TestBufferBytesRecorded checks that the engine wires every roster
// architecture's BytesReporter through to the mean and peak buffer
// memory it reports (Section IV.B's space analysis).
func TestBufferBytesRecorded(t *testing.T) {
	pat := traffic.Uniform{P: 0.2, MaxFanout: 8} // load 0.9
	for _, algo := range roster.For(roster.BufferBytes) {
		t.Run(algo.Name, func(t *testing.T) {
			sw := algo.New(8, xrand.New(1))
			if _, ok := sw.(switchsim.BytesReporter); !ok {
				t.Fatal("does not report its buffer bytes")
			}
			res := switchsim.New(sw, pat, switchsim.Config{Slots: 10_000, Seed: 1}, xrand.New(1)).Run(algo.Name)
			if res.AvgBufferBytes <= 0 {
				t.Errorf("AvgBufferBytes = %v", res.AvgBufferBytes)
			}
			if res.PeakBufferBytes <= 0 {
				t.Errorf("PeakBufferBytes = %v", res.PeakBufferBytes)
			}
			if float64(res.PeakBufferBytes) < res.AvgBufferBytes {
				t.Errorf("peak %d below per-port average %v", res.PeakBufferBytes, res.AvgBufferBytes)
			}
		})
	}
}
