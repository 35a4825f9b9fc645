package destset

import (
	"testing"

	"voqsim/internal/xrand"
)

// FuzzNextOneFrom drives NextOneFrom with arbitrary universes, set
// contents and start positions: it must never panic, and its answer
// must match a linear Contains scan. Run indefinitely with
// `go test -fuzz FuzzNextOneFrom ./internal/destset`; under plain
// `go test` only the seed corpus runs.
func FuzzNextOneFrom(f *testing.F) {
	// Seeds cover word boundaries, empty sets, negative and
	// past-the-end starts, and a partial last word.
	f.Add(uint64(1), uint16(1), int16(0))
	f.Add(uint64(2), uint16(64), int16(63))
	f.Add(uint64(3), uint16(65), int16(64))
	f.Add(uint64(4), uint16(128), int16(-5))
	f.Add(uint64(5), uint16(200), int16(300))
	f.Add(uint64(6), uint16(9), int16(8))

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, fromRaw int16) {
		n := int(nRaw%1024) + 1
		s := New(n)
		s.RandomBernoulli(xrand.New(seed), 0.15)
		from := int(fromRaw)

		got := s.NextOneFrom(from)
		want := -1
		for p := max(from, 0); p < n; p++ {
			if s.Contains(p) {
				want = p
				break
			}
		}
		if got != want {
			t.Fatalf("n=%d from=%d: NextOneFrom = %d, want %d (set %v)", n, from, got, want, s)
		}
		if got >= 0 && !s.Contains(got) {
			t.Fatalf("NextOneFrom returned non-member %d", got)
		}
	})
}

// FuzzRotatedFirst drives RotatedFirst with arbitrary universes, mask
// densities and priority positions: its answer must match the plain
// modular scan. Run indefinitely with
// `go test -fuzz FuzzRotatedFirst ./internal/destset`.
func FuzzRotatedFirst(f *testing.F) {
	// Seeds cover a lone word, both sides of a word boundary, a
	// partial last word and an empty intersection.
	f.Add(uint64(1), uint16(1), uint16(0), uint8(255))
	f.Add(uint64(2), uint16(64), uint16(63), uint8(10))
	f.Add(uint64(3), uint16(65), uint16(64), uint8(3))
	f.Add(uint64(4), uint16(130), uint16(127), uint8(1))
	f.Add(uint64(5), uint16(1024), uint16(1000), uint8(0))

	f.Fuzz(func(t *testing.T, seed uint64, nRaw, pRaw uint16, density uint8) {
		n := int(nRaw%1024) + 1
		p := int(pRaw) % n
		r := xrand.New(seed)
		x, y := New(n), New(n)
		x.RandomBernoulli(r, float64(density)/255)
		y.RandomBernoulli(r, 0.5)

		if got, want := RotatedFirst(x.Words(), y.Words(), p), modularFirst(x, y, p); got != want {
			t.Fatalf("n=%d p=%d: RotatedFirst = %d, want %d (x %v, y %v)", n, p, got, want, x, y)
		}
	})
}
