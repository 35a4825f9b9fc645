package xrand

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestReproducible(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestReseedRestoresSequence(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed: got %d want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependentOfOrder(t *testing.T) {
	a := New(9).Split("traffic", 3)
	// Derive another substream first; the "traffic"/3 stream must not move.
	parent := New(9)
	_ = parent.Split("tiebreak", 0)
	b := parent.Split("traffic", 3)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: split stream depends on derivation order", i)
		}
	}
}

func TestSplitStreamsDiffer(t *testing.T) {
	parent := New(5)
	a := parent.Split("x", 0)
	b := parent.Split("x", 1)
	c := parent.Split("y", 0)
	same := 0
	for i := 0; i < 200; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av == bv || av == cv || bv == cv {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across substreams", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(17)
	const n, draws = 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn(%d): value %d drawn %d times, want ~%.0f", n, v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-2) {
			t.Fatal("Bool(-2) returned true")
		}
		if !r.Bool(3) {
			t.Fatal("Bool(3) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	r := New(23)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bool(%v) rate %v", p, rate)
	}
}

// members lists the set bits of a bitmap in ascending order.
func members(words []uint64) []int {
	var out []int
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

func TestSampleProperties(t *testing.T) {
	r := New(31)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		dst := []uint64{^uint64(0)} // stale bits must go
		r.SampleBits(dst, n, k)
		picks := members(dst)
		if len(picks) != k {
			return false
		}
		for _, v := range picks {
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleUniform(t *testing.T) {
	// Each element of 0..9 should appear in a 3-subset with prob 3/10.
	r := New(37)
	const draws = 60000
	counts := make([]int, 10)
	buf := make([]uint64, 1)
	for i := 0; i < draws; i++ {
		r.SampleBits(buf, 10, 3)
		for _, v := range members(buf) {
			counts[v]++
		}
	}
	want := float64(draws) * 0.3
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("element %d in sample %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(41)
	const p, n = 0.25, 100000
	geo := NewGeo(p)
	sum := 0
	for i := 0; i < n; i++ {
		g := geo.Next(r)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += g
	}
	mean := float64(sum) / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("Geometric(%v) mean %v, want %v", p, mean, 1/p)
	}
}

func TestGeometricOne(t *testing.T) {
	r, geo := New(43), NewGeo(1)
	for i := 0; i < 100; i++ {
		if g := geo.Next(r); g != 1 {
			t.Fatalf("Geometric(1) = %d", g)
		}
	}
}

// mul64Reference is the portable four-multiply 128-bit product Intn
// used before it moved to math/bits.Mul64; every golden was recorded
// with it.
func mul64Reference(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// TestMul64 pins the product under Intn to the reference: the same
// (hi, lo) on the carry edge cases and on random operands.
func TestMul64(t *testing.T) {
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {math.MaxUint64, 2}, {1 << 32, 1 << 32}, {math.MaxUint64, math.MaxUint64},
	}
	r := New(11)
	for i := 0; i < 10_000; i++ {
		cases = append(cases, [2]uint64{r.Uint64(), r.Uint64()})
	}
	for _, c := range cases {
		hi, lo := bits.Mul64(c[0], c[1])
		wantHi, wantLo := mul64Reference(c[0], c[1])
		if hi != wantHi || lo != wantLo {
			t.Fatalf("bits.Mul64(%d,%d) = (%d,%d), reference (%d,%d)", c[0], c[1], hi, lo, wantHi, wantLo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn16(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(16)
	}
	_ = sink
}

// sampleReference is the textbook selection-sampling loop the
// index-returning Sample ran, and that SampleBits must stay
// draw-for-draw and bit-for-bit identical to.
func sampleReference(r *Rand, dst []int, n, k int) []int {
	dst = dst[:0]
	remaining, needed := n, k
	for i := 0; needed > 0; i++ {
		if r.Float64()*float64(remaining) < float64(needed) {
			dst = append(dst, i)
			needed--
		}
		remaining--
	}
	return dst
}

// identityNs are the universe sizes of the draw identity pins: word
// boundaries on both sides, several words, and the widest switch.
var identityNs = []int{1, 16, 63, 64, 65, 130, 1024}

func TestSampleMatchesReference(t *testing.T) {
	check := func(a, b *Rand, n, k int, what string) {
		t.Helper()
		got := make([]uint64, (n+63)/64)
		for i := range got {
			got[i] = 0x5555555555555555 // stale content
		}
		a.SampleBits(got, n, k)
		want := sampleReference(b, nil, n, k)
		picks := members(got)
		if len(picks) != len(want) {
			t.Fatalf("%s (n=%d k=%d): got %d picks, want %d", what, n, k, len(picks), len(want))
		}
		for i := range picks {
			if picks[i] != want[i] {
				t.Fatalf("%s (n=%d k=%d): pick %d is %d, want %d", what, n, k, i, picks[i], want[i])
			}
		}
		if a.s != b.s {
			t.Fatalf("%s (n=%d k=%d): generator states diverged", what, n, k)
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range identityNs {
			for _, k := range []int{0, 1, n / 2, n} {
				a := New(seed)
				check(a, &Rand{s: a.s}, n, k, fmt.Sprintf("seed %d", seed))
			}
		}
	}
	for seed := uint64(1); seed <= 40; seed++ {
		a, b := New(seed), New(seed)
		for trial := 0; trial < 200; trial++ {
			n := 1 + int(a.Uint64()%1024)
			b.Uint64() // keep the two streams aligned
			k := int(a.Uint64() % uint64(n+1))
			b.Uint64()
			check(a, b, n, k, fmt.Sprintf("seed %d trial %d", seed, trial))
		}
	}
}

// TestBernoulliBitsMatchesBool pins BernoulliBits to n successive Bool
// calls on a clone of the generator: the same bits, no stale bits past
// n, and the same final state — including the p <= 0 and p >= 1
// shortcuts, which draw nothing, and a NaN p, which draws and reads
// false.
func TestBernoulliBitsMatchesBool(t *testing.T) {
	ps := []float64{0, math.Ldexp(1, -60), 0.2, 0.5, math.Nextafter(1, 0), 1, math.NaN()}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range identityNs {
			for _, p := range ps {
				r := New(seed)
				ref := &Rand{s: r.s}
				got := make([]uint64, (n+63)/64)
				for i := range got {
					got[i] = 0xaaaaaaaaaaaaaaaa // stale content
				}
				r.BernoulliBits(got, n, p)
				want := make([]uint64, len(got))
				for i := 0; i < n; i++ {
					if ref.Bool(p) {
						want[i>>6] |= 1 << uint(i&63)
					}
				}
				for wi := range want {
					if got[wi] != want[wi] {
						t.Fatalf("seed %d n=%d p=%v: word %d is %#x, Bool says %#x", seed, n, p, wi, got[wi], want[wi])
					}
				}
				if r.s != ref.s {
					t.Fatalf("seed %d n=%d p=%v: generator states diverged", seed, n, p)
				}
			}
		}
	}
}

// TestBernoulliBitsThreshold puts p on the next draw's own grid point:
// with x the draw's 53 bits, Float64() is exactly x/2^53, so p = x/2^53
// must read false and p = (x+0.5)/2^53 true. A threshold rounded down
// instead of up reads the second one false.
func TestBernoulliBitsThreshold(t *testing.T) {
	r := New(47)
	tested := 0
	for tested < 200 {
		x := (&Rand{s: r.s}).Uint64() >> 11
		if x == 0 || x >= 1<<52 {
			r.Uint64() // x+0.5 must be exact, and x/2^53 a real p
			continue
		}
		for _, tc := range []struct {
			p    float64
			want uint64
		}{
			{float64(x) / (1 << 53), 0},
			{(float64(x) + 0.5) / (1 << 53), 1},
		} {
			viaBool := (&Rand{s: r.s}).Bool(tc.p)
			var w [1]uint64
			(&Rand{s: r.s}).BernoulliBits(w[:], 1, tc.p)
			if w[0] != tc.want || viaBool != (tc.want == 1) {
				t.Fatalf("x=%d p=%v: BernoulliBits %d, Bool %v, want %d", x, tc.p, w[0], viaBool, tc.want)
			}
		}
		r.Uint64()
		tested++
	}
}

func BenchmarkBernoulliBits16(b *testing.B) {
	r := New(1)
	var w [1]uint64
	for i := 0; i < b.N; i++ {
		r.BernoulliBits(w[:], 16, 0.2)
	}
}

func BenchmarkBernoulliBool16(b *testing.B) {
	r := New(1)
	var w uint64
	for i := 0; i < b.N; i++ {
		w = 0
		for j := 0; j < 16; j++ {
			if r.Bool(0.2) {
				w |= 1 << uint(j)
			}
		}
	}
	_ = w
}

func BenchmarkSampleBits(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := New(1)
			w := make([]uint64, (n+63)/64)
			for i := 0; i < b.N; i++ {
				r.SampleBits(w, n, 4)
			}
		})
	}
}
