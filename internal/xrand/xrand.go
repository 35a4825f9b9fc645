// Package xrand provides the deterministic pseudo-random number
// generation used throughout the simulator.
//
// The simulator needs three properties that are awkward to get from
// math/rand directly:
//
//  1. Reproducibility: a run is fully determined by one 64-bit seed, so
//     experiments can be re-run bit-for-bit and failures can be replayed.
//  2. Stream independence: every component (each input port's traffic
//     source, each output port's tie-breaker, ...) draws from its own
//     statistically independent substream, so adding a consumer never
//     perturbs the draws seen by another.
//  3. Speed: a slot of a 16x16 switch makes dozens of draws, and a sweep
//     makes hundreds of millions; generation must be a handful of
//     arithmetic ops with no locking.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through a
// splitmix64 expansion of the user seed. Substreams are derived by
// hashing a (seed, label, index) triple with splitmix64, which gives
// independent start states rather than relying on sequence jumping.
//
// # Substream discipline
//
// Every independent consumer gets its own substream via Split(label,
// index), never a share of a sibling's. The conventions, which all
// determinism tests rely on:
//
//   - The run seed makes one root; the engine derives
//     Split("traffic", 0) and the architecture Split("switch", 0).
//   - Traffic gives each input port its own substream (one per port
//     index), so per-port arrival processes are independent and a
//     port's draw sequence is unchanged by activity at other ports.
//   - Schedulers split again per concern (e.g. "wba" tie-breaks); an
//     arbiter's draws come only from the stream the engine passes it.
//   - Anything added to a run that must not perturb it — the
//     observability layer is the canonical case — draws nothing: an
//     instrumented run must stay bit-identical to an unobserved one.
//
// Under this discipline a sweep point is reproducible bit-for-bit from
// (seed, labels) alone, regardless of worker count or run order.
package xrand

import (
	"errors"
	"math"
	"math/bits"
)

// splitmix64 advances *state and returns the next output of the
// splitmix64 generator. It is used both for seed expansion and for
// substream derivation because it is a strong 64-bit mixer.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** pseudo-random number generator. It is not
// safe for concurrent use; give each goroutine its own Rand (see
// Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Two generators created
// with the same seed produce identical sequences.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the state it would have had if freshly
// created with New(seed).
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A theoretically possible all-zero state would lock the generator
	// at zero forever; splitmix64 cannot emit four zeros in a row, but
	// guard anyway so the invariant is local and obvious.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// State returns the generator's raw xoshiro256** state, for
// checkpointing. Restoring it with SetState resumes the exact draw
// sequence.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state captured with State. The all-zero state
// is rejected: xoshiro256** would emit zeros forever from it, and no
// reachable generator ever has it (New and Split both guard against
// it), so it can only come from a corrupt snapshot.
func (r *Rand) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("xrand: all-zero generator state")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new, statistically independent generator identified
// by (label, index). Deriving the same (label, index) twice from
// generators with the same seed history yields identical substreams;
// distinct labels or indices yield unrelated ones. The parent's state
// is not advanced, so the set of substreams a component derives never
// depends on derivation order.
func (r *Rand) Split(label string, index int) *Rand {
	h := r.s[0] ^ rotl(r.s[2], 31)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		_ = splitmix64(&h)
	}
	h ^= uint64(index) * 0xd6e8feb86659fd93
	child := &Rand{}
	for i := range child.s {
		child.s[i] = splitmix64(&h)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return child
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. Probabilities outside [0, 1]
// are clamped.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// The implementation uses Lemire's multiply-shift rejection method,
// which avoids modulo bias without a division in the common case.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// The two bitmap draws below keep the generator state in locals (one
// store-back at the end) and fold Float64's exact /2^53 into the other
// side of the comparison. Both transforms are draw-for-draw and
// bit-for-bit identical to the plain Float64 forms: the state update is
// Uint64 verbatim, and u>>11 < 2^53 makes the division exact, so
// scaling both sides by 2^53 flips no comparison.
// TestBernoulliBitsMatchesBool and TestSampleMatchesReference pin the
// equivalence.

// BernoulliBits writes n Bernoulli(p) trials into the words of
// dst[:(n+63)/64]: bit i is set exactly when the i-th of n successive
// Bool(p) calls would return true, and the generator ends where those
// calls would leave it. Bits past n are cleared.
func (r *Rand) BernoulliBits(dst []uint64, n int, p float64) {
	words := dst[:(n+63)/64]
	if p <= 0 || p >= 1 {
		// Bool's shortcuts, which draw nothing.
		clear(words)
		for i := 0; p >= 1 && i < n; i++ {
			words[i>>6] |= 1 << uint(i&63)
		}
		return
	}
	// x/2^53 < p  <=>  x < p*2^53  <=>  x < ceil(p*2^53) for the integer
	// x = u>>11 < 2^53. A NaN p fails every comparison in Bool, so it
	// draws and reads false: threshold 0.
	var t uint64
	if !math.IsNaN(p) {
		t = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for wi := range words {
		var w uint64
		for b := range min(64, n-wi<<6) {
			u := rotl(s1*5, 7) * 9
			t1 := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t1
			s3 = rotl(s3, 45)
			// Both operands are below 2^63, so the difference wraps into
			// the sign bit exactly when u>>11 < t.
			w |= (u>>11 - t) >> 63 << uint(b)
		}
		words[wi] = w
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// SampleBits writes a uniform random k-subset of 0..n-1 into the words
// of dst[:(n+63)/64], one bit per member, clearing every other bit. It
// panics if k > n. The implementation is Vitter's selection-sampling
// (Algorithm S): one draw per candidate until k are chosen, O(n) time,
// O(1) extra space, unbiased.
func (r *Rand) SampleBits(dst []uint64, n, k int) {
	if k > n {
		panic("xrand: SampleBits with k > n")
	}
	words := dst[:(n+63)/64]
	clear(words)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	remaining, needed := float64(n), float64(k)*(1<<53)
	for i := 0; needed > 0; i++ {
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if float64(u>>11)*remaining < needed {
			words[i>>6] |= 1 << uint(i&63)
			needed -= 1 << 53
		}
		remaining--
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Geo samples the geometric distribution on {1, 2, ...} with success
// probability p: the number of Bernoulli(p) trials up to and including
// the first success. Next inverts one uniform draw, O(1), with the
// parameter's log(1-p) precomputed, since it is loop-invariant for any
// fixed-rate source.
type Geo struct {
	p    float64
	logQ float64 // log(1-p); 0 when p == 1 (unused)
}

// NewGeo returns a sampler of Geometric(p) on {1, 2, ...}.
func NewGeo(p float64) Geo {
	if p <= 0 || p > 1 {
		panic("xrand: NewGeo needs 0 < p <= 1")
	}
	g := Geo{p: p}
	if p < 1 {
		g.logQ = math.Log(1 - p)
	}
	return g
}

// Next draws one geometric variate using r's stream.
func (g Geo) Next(r *Rand) int {
	if g.p == 1 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	v := int(math.Ceil(math.Log(1-u) / g.logQ))
	if v < 1 {
		v = 1
	}
	return v
}
