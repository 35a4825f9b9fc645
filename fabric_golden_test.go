package voqsim

// Fabric delivery-trace goldens: the bit-identity contract of the
// multi-stage pipeline, pinned through the public facade. Each grid
// cell runs a 4-ary fat-tree behind Config.Topology and hashes the
// complete fabric delivery stream — packet ID, external input, leaf,
// slot and Last flag per copy — plus the headline and fabric-level
// statistics. Any change to link timing, split order, routing or the
// fabric's counters shows up as a hash mismatch.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test -run TestFabricDeliveryGolden -update-golden .

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/roster"
)

var fabricGoldenSeeds = []uint64{1, 42}

// fabricDeliveryHash runs one fat-tree grid cell through the facade
// and returns the FNV-64a hash of its delivery stream with the
// delivered-copy count.
func fabricDeliveryHash(tb testing.TB, algo Scheduler, seed uint64) (uint64, int64) {
	tb.Helper()
	cfg := Config{
		Scheduler: algo,
		Topology:  "fattree:k=4",
		Traffic:   BernoulliTraffic(0.3, 0.12),
		Slots:     2_000,
		Seed:      seed,
	}
	runner, name, release, err := buildRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer release()
	h := fnv.New64a()
	var buf [33]byte
	var copies int64
	runner.OnDelivery(func(d cell.Delivery) {
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
	res := runner.Run(name)
	if res.Unstable {
		tb.Fatalf("fabric golden cell %s seed %d unstable at slot %d", algo, seed, res.UnstableAt)
	}
	fmt.Fprintf(h, "|%d|%d|%v|%.17g|%.17g|%.17g|%d",
		res.Delivered, res.Completed, res.Unstable,
		res.InputDelay.Mean, res.OutputDelay.Mean, res.AvgQueue, res.MaxQueue)
	if res.Fabric == nil {
		tb.Fatal("fabric run produced no fabric stats")
	}
	fmt.Fprintf(h, "|%s|%d|%d|%d|%d|%.17g|%d|%d",
		res.Fabric.Topology, res.Fabric.AdmittedPackets, res.Fabric.AdmittedCopies,
		res.Fabric.DeliveredCopies, res.Fabric.DroppedCopies,
		res.Fabric.HopMean, res.Fabric.HopMin, res.Fabric.HopMax)
	return h.Sum64(), copies
}

type fabricGoldenEntry struct {
	Hash   uint64 `json:"hash"`
	Copies int64  `json:"copies"`
}

// TestFabricDeliveryGolden pins the fat-tree delivery stream of each
// roster architecture (internal/roster) to the recorded hashes. The
// rows run in parallel; the golden is rewritten once they have all
// finished.
func TestFabricDeliveryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-architecture fabric grid")
	}
	path := filepath.Join("testdata", "fabric_fattree4_golden.json")
	want := map[string]fabricGoldenEntry{}
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
	got := map[string]fabricGoldenEntry{}
	if *updateGolden {
		t.Cleanup(func() { writeGolden(t, path, got) })
	}
	for _, algo := range roster.For(roster.FabricGolden) {
		for _, seed := range fabricGoldenSeeds {
			key := fmt.Sprintf("%s/fattree:k=4/seed=%d", algo.Name, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				hash, copies := fabricDeliveryHash(t, Scheduler(algo.Name), seed)
				mu.Lock()
				got[key] = fabricGoldenEntry{Hash: hash, Copies: copies}
				mu.Unlock()
				if *updateGolden {
					return
				}
				w, ok := want[key]
				if !ok {
					t.Fatalf("no golden entry for %s", key)
				}
				if w != (fabricGoldenEntry{Hash: hash, Copies: copies}) {
					t.Errorf("fabric delivery stream diverged: got {hash:%d copies:%d}, want {hash:%d copies:%d}",
						hash, copies, w.Hash, w.Copies)
				}
			})
		}
	}
}
