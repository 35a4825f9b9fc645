package switchsim

// Tests for the Section IV.B buffer-memory accounting: the shared
// data cell must make FIFOMS's byte footprint a small fraction of
// iSLIP's under multicast traffic, and the engine must wire the
// optional BytesReporter through correctly.

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/sched/islip"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func TestSharedCellSavesMemoryVsCopies(t *testing.T) {
	// Section IV.B: at mean fanout 4.5 the copied representation
	// stores ~4.5 payloads per packet where the shared one stores one
	// plus small address cells. iSLIP also queues longer, so demand at
	// least a 3x byte advantage for FIFOMS.
	pat := traffic.Uniform{P: 0.15, MaxFanout: 8} // load 0.675
	const n = 16
	run := func(arb core.Arbiter) float64 {
		sw := core.NewSwitch(n, arb, xrand.New(2))
		return New(sw, pat, Config{Slots: 20_000, Seed: 2}, xrand.New(2)).Run(arb.Name()).AvgBufferBytes
	}
	fifoms := run(&core.FIFOMS{})
	islipBytes := run(islip.New())
	if islipBytes < 3*fifoms {
		t.Fatalf("copied-mode bytes %v not >> shared-mode bytes %v", islipBytes, fifoms)
	}
}

func TestBytesMatchCellAccountingExactly(t *testing.T) {
	// On a quiesced switch with one known packet, the byte count is
	// exactly PayloadSize + k*AddressCellSize.
	sw := core.NewSwitch(4, &core.FIFOMS{}, xrand.New(3))
	sw.Arrive(&cell.Packet{ID: 1, Input: 0, Arrival: 0, Dests: destset.FromMembers(4, 1, 3)})
	want := int64(cell.PayloadSize + 2*cell.AddressCellSize)
	if got := sw.BufferedBytes(); got != want {
		t.Fatalf("BufferedBytes = %d, want %d", got, want)
	}
}
