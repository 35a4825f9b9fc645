package experiment

import (
	"math"
	"reflect"
	"testing"

	"voqsim/internal/analytic"
	"voqsim/internal/traffic"
)

func replicatedSweep(workers, reps int) *Sweep {
	return &Sweep{
		Name: "reps", Title: "replicated", N: 8,
		Loads:      []float64{0.2, 0.5},
		Algorithms: []Algorithm{FIFOMS, OQFIFO},
		Slots:      2000, Seed: 7, Workers: workers,
		Replications: reps,
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.BernoulliAtLoad(load, 0.25, n)
		},
	}
}

// TestReplicatedSweepDeterminism pins that a replicated sweep's merged
// table is byte-identical for any worker count — the R runs of a point
// land on the pool in any order, but each writes its own slot and the
// merge folds in replication order.
func TestReplicatedSweepDeterminism(t *testing.T) {
	mk := func(workers int) *Table {
		tbl, err := replicatedSweep(workers, 3).Run()
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a := mk(1)
	for _, workers := range []int{2, 4} {
		b := mk(workers)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("worker count %d changed the replicated table:\n%+v\n%+v", workers, a, b)
		}
	}
}

// TestReplicatedSweepMergesRuns checks the merged point against the
// individual replications run by hand: replication 0 must use the
// legacy point seed (so the merged point's Seed matches a plain
// sweep's), counters must sum, and every per-replication run must be
// reproducible from its pinned (seed, ai, li, rep) derivation.
func TestReplicatedSweepMergesRuns(t *testing.T) {
	const reps = 3
	tbl, err := replicatedSweep(2, reps).Run()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := replicatedSweep(2, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := replicatedSweep(1, reps)
	for ai := range tbl.Points {
		for li, pt := range tbl.Points[ai] {
			want := plain.Points[ai][li]
			if pt.Results.Seed != want.Results.Seed {
				t.Fatalf("[%d][%d] merged Seed %d, legacy point seed %d", ai, li, pt.Results.Seed, want.Results.Seed)
			}
			var slots, offered int64
			for rep := 0; rep < reps; rep++ {
				one := s.runCell(ai, li, rep, PointRun{})
				slots += one.Results.Slots
				offered += one.Results.OfferedPackets
				if rep == 0 && !reflect.DeepEqual(one.Results, want.Results) {
					t.Fatalf("[%d][%d] replication 0 differs from the plain sweep point:\n%+v\n%+v",
						ai, li, one.Results, want.Results)
				}
			}
			if pt.Results.Slots != slots || pt.Results.OfferedPackets != offered {
				t.Fatalf("[%d][%d] merged counters (slots %d, offered %d) != per-rep sums (%d, %d)",
					ai, li, pt.Results.Slots, pt.Results.OfferedPackets, slots, offered)
			}
			if c := pt.Results.InputDelay.Count; c == 0 {
				t.Fatalf("[%d][%d] merged input-delay count is zero", ai, li)
			}
		}
	}
}

// TestReplicateEstimates pins replicated runs against analysis: eight
// independent replications of an output-queued switch, merged, land on
// the Karol closed form for its delay.
func TestReplicateEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many replications")
	}
	s := &Sweep{
		Name: "karol", N: 16,
		Loads:      []float64{0.5},
		Algorithms: []Algorithm{OQFIFO},
		Slots:      30_000, Seed: 13,
		Replications: 8,
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.UniformAtLoad(load, 1, n)
		},
	}
	tbl, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := tbl.Points[0][0].Results
	if res.Unstable {
		t.Fatal("unstable replication at load 0.5")
	}
	if res.Slots != 8*30_000 {
		t.Fatalf("merged %d slots, want 8 replications of 30000", res.Slots)
	}
	if got, want := res.InputDelay.Mean, analytic.OQDelay(16, 0.5); math.Abs(got-want) > 0.05 {
		t.Fatalf("OQ delay over 8 replications %v misses theory %v", got, want)
	}
}
