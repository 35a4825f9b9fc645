package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 || !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) ||
		!math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) || !math.IsNaN(w.StdErr()) {
		t.Fatal("empty Welford should be NaN everywhere")
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("extrema = %v %v", w.Min(), w.Max())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3)
	if w.Mean() != 3 || !math.IsNaN(w.Variance()) {
		t.Fatal("single observation stats wrong")
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// A large offset must not destroy the variance estimate.
	var w Welford
	const offset = 1e9
	for i := 0; i < 1000; i++ {
		w.Add(offset + float64(i%2)) // values offset, offset+1 alternating
	}
	if !almostEqual(w.Variance(), 0.25025, 1e-3) {
		t.Fatalf("Variance = %v, want ~0.25", w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		var all, a, b Welford
		bounded := func(v float64) bool { return !math.IsNaN(v) && math.Abs(v) < 1e12 }
		for _, x := range xs {
			if !bounded(x) {
				return true
			}
			all.Add(x)
			a.Add(x)
		}
		for _, y := range ys {
			if !bounded(y) {
				return true
			}
			all.Add(y)
			b.Add(y)
		}
		a.Merge(&b)
		scale := 1 + math.Abs(all.Mean())
		return a.Count() == all.Count() &&
			almostEqual(a.Mean(), all.Mean(), 1e-9*scale) &&
			almostEqual(a.Variance(), all.Variance(), 1e-6*(1+all.Variance())) &&
			almostEqual(a.Min(), all.Min(), 0) &&
			almostEqual(a.Max(), all.Max(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(&b) // empty into non-empty
	if a.Count() != 1 || a.Mean() != 1 {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(&a) // non-empty into empty
	if b.Count() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestMaxInt64(t *testing.T) {
	var m MaxInt64
	if m.Value() != 0 {
		t.Fatal("zero value not 0")
	}
	m.Observe(5)
	m.Observe(3)
	if m.Value() != 5 {
		t.Fatalf("Value = %d", m.Value())
	}
	var o MaxInt64
	o.Observe(9)
	m.Merge(&o)
	if m.Value() != 9 {
		t.Fatalf("after merge Value = %d", m.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, x := range []int64{0, 1, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(x)
	}
	if h.Count() != 9 {
		t.Fatalf("Count = %d", h.Count())
	}
	b := h.Buckets()
	// bucket 0: {0}=1; bucket 1: {1}x2; bucket 2: {2,3}=2; bucket 3: {4..7}=2;
	// bucket 4: {8..15}=1; bucket 10: {512..1023}=1
	want := map[int]int64{0: 1, 1: 2, 2: 2, 3: 2, 4: 1, 10: 1}
	for k, c := range b {
		if c != want[k] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", k, c, want[k], b)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	h.Observe(1000)
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("median bound = %d, want 1", q)
	}
	if q := h.Quantile(1.0); q != 1023 {
		t.Fatalf("p100 bound = %d, want 1023", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	b.Observe(100)
	b.Observe(0)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Quantile(1.0) != 127 {
		t.Fatalf("merged max bound = %d", a.Quantile(1.0))
	}
}

func TestHistogramNegativeGoesToBucketZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Buckets()[0] != 1 {
		t.Fatal("negative observation not in bucket 0")
	}
}
