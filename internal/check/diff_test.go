package check

import (
	"fmt"
	"testing"
)

// TestDifferentialGrid is the acceptance grid of ISSUE 3: every
// arbiter of the comparison set, at every size, with three independent
// seeds. For fifoms each cell proves the word-parallel kernel delivers
// bit-identically to the paper-prose oracle under full invariant
// checking, and fifoms-nosplit does the same for the all-or-nothing
// discipline; for the others it proves checker passivity plus a clean
// invariant verdict.
func TestDifferentialGrid(t *testing.T) {
	slotsByN := map[int]int64{4: 400, 8: 300, 16: 200, 32: 100, 64: 50}
	for _, algo := range []string{"fifoms", "fifoms-nosplit", "pim", "eslip", "wba"} {
		for _, n := range []int{4, 8, 16, 32, 64} {
			if testing.Short() && n > 16 {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := DiffConfig{Algo: algo, N: n, Seed: seed, Slots: slotsByN[n]}
				t.Run(fmt.Sprintf("%s/n%d/seed%d", algo, n, seed), func(t *testing.T) {
					t.Parallel()
					if err := Differential(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestDifferentialOverload repeats the fifoms-vs-oracle comparison in
// the saturated regime, where rounds and fanout splitting are at their
// most contended.
func TestDifferentialOverload(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DiffConfig{Algo: "fifoms", N: 8, Seed: seed, Slots: 300, Load: 0.98, B: 0.4}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := Differential(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialUnknownAlgo pins the error path.
func TestDifferentialUnknownAlgo(t *testing.T) {
	if err := Differential(DiffConfig{Algo: "nope", N: 4, Seed: 1, Slots: 10}); err == nil {
		t.Fatal("expected an error for an unknown algorithm")
	}
}
