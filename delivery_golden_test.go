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
	"sync"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/experiment"
	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// 65 and 130 give every arbiter's port bitmaps a second and a third
// word, so a scan that mishandles a word boundary shows here.
var deliveryGoldenSizes = []int{4, 16, 64, 65, 130}

var deliveryGoldenSeeds = []uint64{1, 42, 0xfeedface}

// deliveryGoldenWide is the size of the rows that reach the core VOQ
// store's layout above N = 256: five bitmap words, so the four-word
// early exit of the wide kernels runs and a remainder word follows it.
// Only the architectures on that store run it (roster.DeliveryGoldenWide),
// for 500 slots at the first seed.
const deliveryGoldenWide = 300

func deliveryGoldenSlots(n int) int64 {
	switch {
	case n >= deliveryGoldenWide:
		return 500
	case n >= 64:
		return 1_500
	}
	return 4_000
}

// deliveryHash runs one grid cell and returns the FNV-64a hash of its
// delivery stream together with the delivered-copy count.
func deliveryHash(algo experiment.Algorithm, n int, seed uint64) (uint64, int64) {
	pat := traffic.Bernoulli{P: 0.6, B: 2.0 / float64(n)}
	sw := algo.New(n, xrand.New(seed).Split("switch", 0))
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
	res := r.Run(algo.Name)
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
// architecture (internal/roster) to the recorded hashes, and of the
// core VOQ store's architectures at deliveryGoldenWide too. The rows
// run in parallel; the golden is rewritten once they have all finished.
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
	var mu sync.Mutex
	got := map[string]deliveryGoldenEntry{}
	if *updateGolden {
		t.Cleanup(func() { writeGolden(t, path, got) })
	}
	type row struct {
		algo experiment.Algorithm
		n    int
		seed uint64
	}
	var rows []row
	for _, algo := range roster.For(roster.DeliveryGolden) {
		for _, n := range deliveryGoldenSizes {
			for _, seed := range deliveryGoldenSeeds {
				rows = append(rows, row{algo, n, seed})
			}
		}
	}
	for _, algo := range roster.For(roster.DeliveryGoldenWide) {
		rows = append(rows, row{algo, deliveryGoldenWide, deliveryGoldenSeeds[0]})
	}
	for _, c := range rows {
		algo, n, seed := c.algo, c.n, c.seed
		key := fmt.Sprintf("%s/n=%d/seed=%d", algo.Name, n, seed)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			hash, copies := deliveryHash(algo, n, seed)
			mu.Lock()
			got[key] = deliveryGoldenEntry{Hash: hash, Copies: copies}
			mu.Unlock()
			if *updateGolden {
				return
			}
			w, ok := want[key]
			if !ok {
				t.Fatalf("no golden entry for %s", key)
			}
			if w != (deliveryGoldenEntry{Hash: hash, Copies: copies}) {
				t.Errorf("delivery stream diverged from the pre-arena simulator: got {hash:%d copies:%d}, want {hash:%d copies:%d}",
					hash, copies, w.Hash, w.Copies)
			}
		})
	}
}

// writeGolden rewrites a golden file with got, keys sorted.
func writeGolden[E any](t *testing.T, path string, got map[string]E) {
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
