// Package hw is the Section IV.C complexity arithmetic of the paper's
// hardware FIFOMS (Fig. 3): each round is an input-side and an
// output-side minimum selection over per-port comparators, so a round
// costs ceil(log2 N) comparator delays per side with parallel
// comparator trees and N-1 with a serial chain. LatencyModel turns
// those depths, and the rounds a simulation measures, into picosecond
// scheduling budgets for a concrete technology. The scheduling itself
// is core.FIFOMS; this package models only its latency.
package hw

import "math/bits"

// LatencyModel converts comparator depths into wall-clock scheduling
// latency for a concrete implementation technology.
type LatencyModel struct {
	// ComparatorDelayPs is the propagation delay of one 64-bit
	// comparator stage in picoseconds.
	ComparatorDelayPs int64
	// FeedbackDelayPs is the grant-feedback wiring delay between
	// iterative rounds (Fig. 3's feedback path).
	FeedbackDelayPs int64
}

// DefaultLatency is a conservative contemporary-ASIC operating point:
// 200 ps per comparator stage, 300 ps of feedback wiring per round.
var DefaultLatency = LatencyModel{ComparatorDelayPs: 200, FeedbackDelayPs: 300}

// RoundLatencyPs returns one FIFOMS round's critical path on an N-port
// switch with parallel comparator trees: an input-side selection
// (TreeDepth(N)) followed by an output-side selection (TreeDepth(N))
// plus feedback.
func (m LatencyModel) RoundLatencyPs(n int) int64 {
	return 2*int64(TreeDepth(n))*m.ComparatorDelayPs + m.FeedbackDelayPs
}

// SlotLatencyPs returns the scheduling latency of a slot that took the
// given number of rounds.
func (m LatencyModel) SlotLatencyPs(n int, rounds float64) float64 {
	return rounds * float64(m.RoundLatencyPs(n))
}

// SerialRoundLatencyPs is the serial-comparator counterpart
// (Section IV.C's O(N) case): 2(N-1) comparator delays plus feedback.
func (m LatencyModel) SerialRoundLatencyPs(n int) int64 {
	if n <= 0 {
		panic("hw: non-positive port count")
	}
	return 2*int64(n-1)*m.ComparatorDelayPs + m.FeedbackDelayPs
}

// TreeDepth returns ceil(log2 n), the comparator depth of one
// selection stage on an n-port switch.
func TreeDepth(n int) int {
	if n <= 0 {
		panic("hw: non-positive port count")
	}
	return bits.Len(uint(n - 1))
}
