package stats

import (
	"math"
	"testing"

	"voqsim/internal/xrand"
)

// relClose compares within a relative tolerance, absolute near zero.
func relClose(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// series draws a reproducible heavy-ish-tailed positive series, the
// shape of the delay and queue-length streams these accumulators see.
func series(seed uint64, n int) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		x := r.Float64()
		out[i] = math.Exp(3*x) - 1 + float64(r.Intn(5))
	}
	return out
}

// welfordOf streams xs into a fresh accumulator.
func welfordOf(xs []float64) *Welford {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return &w
}

// sameSummary asserts two accumulators agree on every statistic.
func sameSummary(t *testing.T, label string, got, want *Welford, tol float64) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %d != %d", label, got.Count(), want.Count())
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"mean", got.Mean(), want.Mean()},
		{"variance", got.Variance(), want.Variance()},
		{"min", got.Min(), want.Min()},
		{"max", got.Max(), want.Max()},
	}
	for _, c := range checks {
		if !relClose(c.got, c.want, tol) {
			t.Errorf("%s: %s %v != %v", label, c.name, c.got, c.want)
		}
	}
}

// TestWelfordMergeOrderInsensitive is the ISSUE's property: for random
// partitions of a random series, merge(a,b), merge(b,a) and plain
// streaming all agree within floating-point tolerance.
func TestWelfordMergeOrderInsensitive(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed ^ 0xabcdef)
		xs := series(seed, 200+r.Intn(2000))
		cut := r.Intn(len(xs) + 1)
		streamed := welfordOf(xs)

		ab := welfordOf(xs[:cut])
		ab.Merge(welfordOf(xs[cut:]))
		sameSummary(t, "merge(a,b) vs streaming", ab, streamed, 1e-9)

		ba := welfordOf(xs[cut:])
		ba.Merge(welfordOf(xs[:cut]))
		sameSummary(t, "merge(b,a) vs streaming", ba, streamed, 1e-9)
		sameSummary(t, "merge(b,a) vs merge(a,b)", ba, ab, 1e-9)
	}
}

// TestWelfordMergeManyPartitions shards one series into many segments
// (including empty ones) and folds them in two different orders.
func TestWelfordMergeManyPartitions(t *testing.T) {
	xs := series(77, 5000)
	streamed := welfordOf(xs)
	bounds := []int{0, 0, 13, 500, 500, 1999, 4000, 5000}
	var parts []*Welford
	for i := 0; i+1 < len(bounds); i++ {
		parts = append(parts, welfordOf(xs[bounds[i]:bounds[i+1]]))
	}
	var fwd Welford
	for _, p := range parts {
		fwd.Merge(p)
	}
	sameSummary(t, "forward fold", &fwd, streamed, 1e-9)
	var rev Welford
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	sameSummary(t, "reverse fold", &rev, streamed, 1e-9)
}
