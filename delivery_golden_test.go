package voqsim

// Delivery-stream goldens: the bit-identity contract of the slot
// pipeline. For every (algorithm, N, seed) cell of the grid below the
// test hashes the complete delivery stream — every copy's packet ID,
// input, output, slot and Last flag, in delivery order — plus the
// headline results, and compares against hashes recorded from the
// pre-arena simulator (PR 5). Any change to queue storage, traffic
// generation or the engine loop that perturbs even one delivery shows
// up as a hash mismatch, which is exactly the discipline the PR 1
// kernel differential and the PR 4 resume grids established.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test -run TestDeliveryStreamGolden -update-golden .

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/experiment"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The grid is every architecture the engine drives: the core family,
// eSLIP and WBA, TATRA (the paper's multicast baseline), OQFIFO, and
// CIOQ at speedup 2, whose output stage is an OQFIFO switch.
var deliveryGoldenAlgos = []string{"fifoms", "pim", "islip", "eslip", "wba", "lqfms", "2drr", "tatra", "oqfifo", "cioq-s2"}

// 65 and 130 give every arbiter's port bitmaps a second and a third
// word, so a scan that mishandles a word boundary shows here.
var deliveryGoldenSizes = []int{4, 16, 64, 65, 130}

var deliveryGoldenSeeds = []uint64{1, 42, 0xfeedface}

func deliveryGoldenSlots(n int) int64 {
	if n >= 64 {
		return 1_500
	}
	return 4_000
}

// deliveryHash runs one grid cell and returns the FNV-64a hash of its
// delivery stream together with the delivered-copy count.
func deliveryHash(tb testing.TB, algo string, n int, seed uint64) (uint64, int64) {
	tb.Helper()
	alg, err := experiment.ByName(algo)
	if err != nil {
		tb.Fatal(err)
	}
	pat := traffic.Bernoulli{P: 0.6, B: 2.0 / float64(n)}
	sw := alg.New(n, xrand.New(seed).Split("switch", 0))
	r := switchsim.New(sw, pat,
		switchsim.Config{Slots: deliveryGoldenSlots(n), Seed: seed},
		xrand.New(seed).Split("traffic", 0))
	h := fnv.New64a()
	var buf [33]byte
	var copies int64
	r.OnDelivery(func(d cell.Delivery) {
		le := func(off int, v uint64) {
			for i := 0; i < 8; i++ {
				buf[off+i] = byte(v >> (8 * i))
			}
		}
		le(0, uint64(d.ID))
		le(8, uint64(d.In))
		le(16, uint64(d.Out))
		le(24, uint64(d.Slot))
		buf[32] = 0
		if d.Last {
			buf[32] = 1
		}
		h.Write(buf[:])
		copies++
	})
	res := r.Run(algo)
	// Fold the headline results in too, so statistics changes that do
	// not touch the stream itself are still caught.
	fmt.Fprintf(h, "|%d|%d|%v|%.17g|%.17g|%.17g|%d",
		res.Delivered, res.Completed, res.Unstable,
		res.InputDelay.Mean, res.OutputDelay.Mean, res.AvgQueue, res.MaxQueue)
	return h.Sum64(), copies
}

type deliveryGoldenEntry struct {
	Hash   uint64 `json:"hash"`
	Copies int64  `json:"copies"`
}

// TestDeliveryStreamGolden pins the delivery stream of every roster
// architecture to the recorded hashes.
func TestDeliveryStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-architecture grid")
	}
	path := filepath.Join("testdata", "delivery_golden.json")
	want := map[string]deliveryGoldenEntry{}
	if !*updateGolden {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (run with -update-golden to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]deliveryGoldenEntry{}
	for _, algo := range deliveryGoldenAlgos {
		for _, n := range deliveryGoldenSizes {
			for _, seed := range deliveryGoldenSeeds {
				algo, n, seed := algo, n, seed
				key := fmt.Sprintf("%s/n=%d/seed=%d", algo, n, seed)
				t.Run(key, func(t *testing.T) {
					hash, copies := deliveryHash(t, algo, n, seed)
					got[key] = deliveryGoldenEntry{Hash: hash, Copies: copies}
					if *updateGolden {
						return
					}
					w, ok := want[key]
					if !ok {
						t.Fatalf("no golden entry for %s", key)
					}
					if w != got[key] {
						t.Errorf("delivery stream diverged from the pre-arena simulator: got {hash:%d copies:%d}, want {hash:%d copies:%d}",
							hash, copies, w.Hash, w.Copies)
					}
				})
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
