package voqsim

// Fairness integration tests: the paper's starvation-freedom claim
// (Section VI) measured with Jain's index over per-input service under
// saturating symmetric demand. A fair scheduler gives every input an
// equal share; a starving one concentrates service.

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/roster"
	"voqsim/internal/stats"
	"voqsim/internal/switchsim"
	"voqsim/internal/xrand"
)

// saturatedShares runs the switch with every input continuously
// backlogged for every output — one full-fanout multicast packet per
// input per slot while the backlog is shallow, respecting the queue
// structure's one-arrival-per-slot rule — and returns the per-input
// delivered-copy counts over the second half.
func saturatedShares(t *testing.T, sw switchsim.Switch, slots int64) []int64 {
	t.Helper()
	n := sw.Ports()
	all := make([]int, n)
	for out := 0; out < n; out++ {
		all[out] = out
	}
	shares := make([]int64, n)
	var id cell.PacketID
	for slot := int64(0); slot < slots; slot++ {
		if sw.BufferedCells() < int64(n*n*4) {
			for in := 0; in < n; in++ {
				id++
				sw.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot,
					Dests: destset.FromMembers(n, all...)})
			}
		}
		sw.Step(slot, func(d cell.Delivery) {
			if slot >= slots/2 {
				shares[d.In]++
			}
		})
	}
	return shares
}

// TestSaturationFairnessAcrossInputs holds every roster architecture
// (internal/roster) to an equal share per input, and every output busy,
// under symmetric saturation.
func TestSaturationFairnessAcrossInputs(t *testing.T) {
	const n, slots = 8, 6000
	for _, algo := range roster.For(roster.SaturationFairness) {
		t.Run(algo.Name, func(t *testing.T) {
			shares := saturatedShares(t, algo.New(n, xrand.New(31)), slots)
			j := stats.JainIndexInts(shares)
			if j < 0.99 {
				t.Errorf("Jain index %.4f under symmetric saturation (shares %v)", j, shares)
			}
			var total int64
			for _, s := range shares {
				total += s
			}
			// Full backlog must keep every output busy: n copies per slot
			// over the measured half.
			if want := int64(n) * (slots - slots/2); total < want*95/100 {
				t.Errorf("served %d of %d possible copies at saturation", total, want)
			}
		})
	}
}

func TestFIFOMSNoStarvationUnderAsymmetricDemand(t *testing.T) {
	// One input fights fifteen: input 0 sends only to output 0, which
	// every other input also wants. Time stamps guarantee input 0 a
	// proportional share (1/n of output 0), never zero.
	const n, slots = 8, 8000
	sw := core.NewSwitch(n, &core.FIFOMS{}, xrand.New(33))
	var id cell.PacketID
	served := make([]int64, n)
	for slot := int64(0); slot < slots; slot++ {
		for in := 0; in < n; in++ {
			id++
			sw.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot,
				Dests: destset.FromMembers(n, 0)})
		}
		sw.Step(slot, func(d cell.Delivery) {
			if slot >= slots/2 {
				served[d.In]++
			}
		})
	}
	j := stats.JainIndexInts(served)
	if j < 0.98 {
		t.Fatalf("output-0 service unfair: J=%.4f shares %v", j, served)
	}
	for in, s := range served {
		if s == 0 {
			t.Fatalf("input %d starved at output 0", in)
		}
	}
}
