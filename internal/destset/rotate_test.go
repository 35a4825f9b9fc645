package destset

import (
	"fmt"
	"testing"

	"voqsim/internal/xrand"
)

// The round-robin priority encoder every VOQ arbiter shares is pinned
// against the loop it stands for: probe p, p+1, ... modulo n and stop
// at the first port set in both masks.

var encoderSizes = []int{1, 2, 63, 64, 65, 130, 1024}

// modularFirst is the plain rotating scan RotatedFirst replaces.
func modularFirst(x, y *Set, p int) int {
	n := x.Universe()
	for k := 0; k < n; k++ {
		if i := (p + k) % n; x.Contains(i) && y.Contains(i) {
			return i
		}
	}
	return -1
}

// encoderMasks returns named (x, y) pairs over n ports: empty, full,
// singletons at the word edges, random masks of two densities, and one
// random row scanned alone (x == y, the accept form).
func encoderMasks(n int) map[string][2]*Set {
	full := New(n)
	FillPorts(full.words, n)
	r := xrand.New(uint64(n))
	sparse, dense, row := New(n), New(n), New(n)
	sparse.RandomBernoulli(r, 0.05)
	dense.RandomBernoulli(r, 0.5)
	row.RandomBernoulli(r, 0.2)
	masks := map[string][2]*Set{
		"empty":        {New(n), full},
		"full":         {full, full},
		"sparse&dense": {sparse, dense},
		"dense&full":   {dense, full},
		"row":          {row, row},
	}
	for _, p := range []int{0, 63, 64, n / 2, n - 1} {
		if p < n {
			masks[fmt.Sprintf("singleton@%d", p)] = [2]*Set{FromMembers(n, p), full}
		}
	}
	return masks
}

func TestRotatedFirstMatchesModularScan(t *testing.T) {
	for _, n := range encoderSizes {
		for name, m := range encoderMasks(n) {
			x, y := m[0], m[1]
			for p := 0; p < n; p++ {
				if got, want := RotatedFirst(x.Words(), y.Words(), p), modularFirst(x, y, p); got != want {
					t.Fatalf("n=%d %s p=%d: RotatedFirst = %d, want %d", n, name, p, got, want)
				}
			}
		}
	}
}

func TestFillPorts(t *testing.T) {
	for _, n := range encoderSizes {
		words := make([]uint64, WordsPerRow(n))
		for i := range words {
			words[i] = 0xdeadbeefdeadbeef // stale bits, above n too
		}
		FillPorts(words, n)
		for i := 0; i < 64*len(words); i++ {
			if got, want := words[i>>6]&(1<<uint(i&63)) != 0, i < n; got != want {
				t.Fatalf("n=%d: bit %d is %v after FillPorts, want %v", n, i, got, want)
			}
		}
	}
}
