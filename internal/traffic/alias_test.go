package traffic

// Goodness-of-fit validation of the fast-mode samplers (alias-method
// binomial counts, Floyd k-subsets) against both analytic
// distributions and the bit-exact samplers they replace. The
// chi-squared machinery comes from internal/stats; acceptance is the
// 0.999 quantile, so a correct sampler fails one test run in a
// thousand at worst — and the seeds here are fixed, so the recorded
// draws either pass forever or flag a real distribution change.

import (
	"math"
	"testing"

	"voqsim/internal/destset"
	"voqsim/internal/stats"
	"voqsim/internal/xrand"
)

// chiCheck runs the pooled GoF test and fails when the statistic
// exceeds the 0.999 quantile.
func chiCheck(t *testing.T, name string, obs []int64, probs []float64) {
	t.Helper()
	stat, df := stats.ChiSquareGoF(obs, probs, 5)
	if df < 1 {
		t.Fatalf("%s: degenerate chi-squared (df %d)", name, df)
	}
	if crit := stats.ChiSquareQuantile(df, 0.999); stat > crit {
		t.Errorf("%s: chi2 %.2f exceeds %.2f (df %d)", name, stat, crit, df)
	}
}

// normalized returns weights scaled to a probability vector.
func normalized(w []float64) []float64 {
	var sum float64
	for _, x := range w {
		sum += x
	}
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = x / sum
	}
	return out
}

// TestAliasTableMatchesBinomial draws from the alias table built over
// the Binomial(n, b) pmf and checks the empirical counts against the
// analytic probabilities.
func TestAliasTableMatchesBinomial(t *testing.T) {
	const n, b, draws = 16, 0.3, 200_000
	tab := NewAliasTable(binomialWeights(n, b))
	r := xrand.New(11)
	obs := make([]int64, n+1)
	for i := 0; i < draws; i++ {
		obs[tab.Sample(r)]++
	}
	chiCheck(t, "alias binomial(16,0.3)", obs, normalized(binomialWeights(n, b)))
}

// TestAliasTableProbReconstruction checks that the table's column
// decomposition reproduces the input pmf exactly (up to float error).
func TestAliasTableProbReconstruction(t *testing.T) {
	w := []float64{0.5, 1.5, 3, 0.25, 4.75}
	tab := NewAliasTable(w)
	probs := normalized(w)
	for i, want := range probs {
		if got := tab.Prob(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestAliasTableEdgeCases pins the degenerate shapes: single outcome,
// point masses, the b<=0 / b>=1 binomial corners, and the panics on
// invalid weights.
func TestAliasTableEdgeCases(t *testing.T) {
	r := xrand.New(3)

	single := NewAliasTable([]float64{7})
	for i := 0; i < 100; i++ {
		if got := single.Sample(r); got != 0 {
			t.Fatalf("single-outcome table drew %d", got)
		}
	}

	point := NewAliasTable([]float64{0, 0, 5, 0})
	for i := 0; i < 100; i++ {
		if got := point.Sample(r); got != 2 {
			t.Fatalf("point-mass table drew %d", got)
		}
	}

	// b >= 1 addresses every output: the count is always n. b <= 0
	// addresses none: always 0.
	always := NewAliasTable(binomialWeights(8, 1))
	never := NewAliasTable(binomialWeights(8, 0))
	for i := 0; i < 100; i++ {
		if got := always.Sample(r); got != 8 {
			t.Fatalf("binomial(8,1) drew %d", got)
		}
		if got := never.Sample(r); got != 0 {
			t.Fatalf("binomial(8,0) drew %d", got)
		}
	}

	for name, weights := range map[string][]float64{
		"empty":    {},
		"all-zero": {0, 0, 0},
		"negative": {1, -1},
		"nan":      {1, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAliasTable(%s) did not panic", name)
				}
			}()
			NewAliasTable(weights)
		}()
	}
}

// TestFloydSubsetExtremes pins the fanout-1 and fanout-N corners of
// the Floyd sampler: k = n must yield the full set, and k = 1 a
// uniform singleton.
func TestFloydSubsetExtremes(t *testing.T) {
	const n = 9
	r := xrand.New(5)
	s := destset.New(n)

	s.RandomKSubsetFloyd(r, n)
	if s.Count() != n {
		t.Fatalf("k=n subset has %d members", s.Count())
	}
	s.RandomKSubsetFloyd(r, 0)
	if s.Count() != 0 {
		t.Fatalf("k=0 subset has %d members", s.Count())
	}

	const draws = 90_000
	counts := make([]int64, n)
	for i := 0; i < draws; i++ {
		s.RandomKSubsetFloyd(r, 1)
		if s.Count() != 1 {
			t.Fatalf("k=1 subset has %d members", s.Count())
		}
		counts[s.Min()]++
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 1.0 / n
	}
	chiCheck(t, "floyd k=1 singleton", counts, probs)
}

// TestFloydSubsetMatchesReservoir compares the two k-subset samplers
// head on: over a small enough universe every subset is its own
// multinomial cell, so the Floyd counts are tested both against the
// analytic uniform law and against the reservoir (Vitter) sampler's
// empirical distribution — the satellite check that the fast path
// replaces the reservoir without tilting it.
func TestFloydSubsetMatchesReservoir(t *testing.T) {
	const n, k, draws = 8, 3, 120_000
	cellOf := map[uint64]int{}
	var cells []uint64
	s := destset.New(n)
	index := func() int {
		w := s.Words()[0]
		if i, ok := cellOf[w]; ok {
			return i
		}
		cellOf[w] = len(cells)
		cells = append(cells, w)
		return len(cells) - 1
	}

	nCells := 56 // C(8,3)
	floyd := make([]int64, 0, nCells)
	vitter := make([]int64, 0, nCells)
	grow := func(c []int64, i int) []int64 {
		for len(c) <= i {
			c = append(c, 0)
		}
		c[i]++
		return c
	}
	rf, rv := xrand.New(17), xrand.New(23)
	for i := 0; i < draws; i++ {
		s.RandomKSubsetFloyd(rf, k)
		floyd = grow(floyd, index())
		s.RandomKSubset(rv, k)
		vitter = grow(vitter, index())
	}
	if len(cells) != nCells {
		t.Fatalf("saw %d distinct subsets, want %d", len(cells), nCells)
	}

	uniform := make([]float64, nCells)
	for i := range uniform {
		uniform[i] = 1.0 / float64(nCells)
	}
	chiCheck(t, "floyd vs analytic uniform", floyd, uniform)
	chiCheck(t, "vitter vs analytic uniform", vitter, uniform)

	empirical := make([]float64, nCells)
	for i, c := range vitter {
		empirical[i] = float64(c) / draws
	}
	chiCheck(t, "floyd vs reservoir empirical", floyd, empirical)
}

// TestFastBernoulliFanoutMatchesExact compares the fanout distribution
// the fast Bernoulli source emits (alias binomial + Floyd subset)
// against the exact source's per-output Bernoulli scan, on the same
// pattern parameters.
func TestFastBernoulliFanoutMatchesExact(t *testing.T) {
	const n, b, slots = 16, 0.25, 120_000
	pat := Bernoulli{P: 1, B: b}

	countFanouts := func(src Source, scale int64) []int64 {
		counts := make([]int64, n+1)
		d := destset.New(n)
		into := src.(IntoSource)
		for slot := int64(0); slot < slots*scale; slot++ {
			if into.NextInto(slot, d) {
				counts[d.Count()]++
			}
		}
		return counts
	}

	// The exact source runs 4x longer so its empirical law can stand
	// in as the expected distribution.
	exact := countFanouts(pat.NewSource(n, 0, xrand.New(29)), 4)
	fast := countFanouts(Fast(pat).NewSource(n, 0, xrand.New(31)), 1)

	var exactTotal int64
	for _, c := range exact {
		exactTotal += c
	}
	probs := make([]float64, n+1)
	for i, c := range exact {
		probs[i] = float64(c) / float64(exactTotal)
	}
	// An exact arrival is never empty (the all-miss scan is "no
	// arrival"), and the fast source maps the k=0 binomial outcome to
	// the same thing.
	if exact[0] != 0 || fast[0] != 0 {
		t.Fatalf("empty arrivals recorded: exact %d, fast %d", exact[0], fast[0])
	}
	chiCheck(t, "fast fanout vs exact empirical", fast, probs)
}
