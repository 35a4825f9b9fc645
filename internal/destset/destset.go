// Package destset implements sets of destination output ports.
//
// A multicast packet on an N-port switch carries a fanout set, a subset
// of {0, ..., N-1}. These sets are consulted on every scheduling
// decision, so they are represented as packed bit vectors: membership,
// insertion and removal are O(1), and iteration and popcount are O(N/64).
// N is bounded only by memory; the simulator uses N up to a few thousand.
//
// The packed words are also the currency of the word-parallel fast
// paths (DESIGN.md §7): Words exposes a set's backing words and
// WordsPerRow the shared row stride, so schedulers can intersect
// occupancy, request and free-port sets with bare uint64 arithmetic
// and walk survivors via trailing-zero iteration — without going
// through per-element calls.
package destset

import (
	"fmt"
	"math/bits"
	"strings"

	"voqsim/internal/xrand"
)

// Set is a mutable subset of {0..N-1} output ports. The zero value is
// unusable; create sets with New. Set values share no storage unless
// explicitly aliased; use Clone for an independent copy.
type Set struct {
	n     int
	words []uint64
}

// New returns the empty set over the universe {0..n-1}. It panics if
// n is not positive.
func New(n int) *Set {
	if n <= 0 {
		panic("destset: non-positive universe size")
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// NewSlab returns k empty sets over {0..n-1} that share one words
// allocation, for pools that refill many sets at a time. Each set's
// words are capped at its own row, so no set can grow into its
// neighbour's.
func NewSlab(n, k int) []Set {
	if n <= 0 {
		panic("destset: non-positive universe size")
	}
	w := WordsPerRow(n)
	words := make([]uint64, k*w)
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = Set{n: n, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return sets
}

// FromMembers returns a set over {0..n-1} containing exactly the given
// members. It panics on out-of-range members.
func FromMembers(n int, members ...int) *Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Universe returns the size n of the universe the set ranges over.
func (s *Set) Universe() int { return s.n }

// check panics if port is outside the universe. Out-of-range ports in
// this simulator always indicate a wiring bug, never bad external
// input, so a panic is the right failure mode.
func (s *Set) check(port int) {
	if port < 0 || port >= s.n {
		panic(fmt.Sprintf("destset: port %d outside universe of %d", port, s.n))
	}
}

// Add inserts port into the set.
func (s *Set) Add(port int) {
	s.check(port)
	s.words[port>>6] |= 1 << uint(port&63)
}

// Remove deletes port from the set; removing an absent port is a no-op.
func (s *Set) Remove(port int) {
	s.check(port)
	s.words[port>>6] &^= 1 << uint(port&63)
}

// Contains reports whether port is a member.
func (s *Set) Contains(port int) bool {
	s.check(port)
	return s.words[port>>6]&(1<<uint(port&63)) != 0
}

// Count returns the number of members (the fanout).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and o have the same universe and members.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// CopyFrom replaces s's members with o's. The universes must match.
// Unlike Clone it writes into existing storage, so steady-state copies
// (the burst source replaying its per-burst set every on-slot) stay
// allocation-free.
func (s *Set) CopyFrom(o *Set) {
	s.sameUniverse(o)
	copy(s.words, o.words)
}

// Alias re-points s at row, which becomes its storage: one Set header
// can then walk a slab of packed rows (the engine's arrival batches),
// so that code which fills or reads a *Set works on the slab in place.
// row must be WordsPerRow(n) long.
func (s *Set) Alias(row []uint64) {
	if len(row) != len(s.words) {
		panic("destset: aliased row does not span the universe")
	}
	s.words = row
}

func (s *Set) sameUniverse(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("destset: universe mismatch %d vs %d", s.n, o.n))
	}
}

// ForEach calls fn for every member in ascending order.
func (s *Set) ForEach(fn func(port int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Words exposes the set's backing bit words: bit p&63 of word p>>6 is
// set exactly when port p is a member. The slice aliases the set's
// storage — callers must treat it as read-only and must not retain it
// across mutations. It exists for word-parallel consumers (the match
// kernels) that intersect whole sets with a handful of AND/ANDNOT
// instructions instead of per-member calls.
func (s *Set) Words() []uint64 { return s.words }

// WordsPerRow returns the number of 64-bit words needed to cover a
// universe of n ports, the row stride shared by every word-parallel
// bitmap over the same universe.
func WordsPerRow(n int) int { return (n + 63) / 64 }

// FillPorts sets bits [0, n) of words and clears the rest: the
// all-ports-free mask every arbiter starts a slot from. words must be
// WordsPerRow(n) long.
func FillPorts(words []uint64, n int) {
	for i := range words {
		words[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		words[len(words)-1] = 1<<uint(rem) - 1
	}
}

// RotatedFirst returns the first port at or after p, wrapping around
// once, whose bit is set in both x and y, or -1 when x & y is empty:
// the round-robin priority encoder (DESIGN.md §7) whose highest
// priority is p, with p in [0, 64·len(x)). x and y are equally long
// word bitmaps; pass one row twice to scan it alone.
func RotatedFirst(x, y []uint64, p int) int {
	wi := p >> 6
	if v := x[wi] & y[wi] & (^uint64(0) << uint(p&63)); v != 0 {
		return wi<<6 + bits.TrailingZeros64(v)
	}
	for i := wi + 1; i < len(x); i++ {
		if v := x[i] & y[i]; v != 0 {
			return i<<6 + bits.TrailingZeros64(v)
		}
	}
	// Wrapped: word wi's bits at or above p are known clear.
	for i := 0; i <= wi; i++ {
		if v := x[i] & y[i]; v != 0 {
			return i<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// NextOneFrom returns the smallest member >= from, or -1 when no such
// member exists. from may lie outside [0, n): negative values scan
// from 0 and values >= n always return -1. Together with Words it
// supports rotating-priority scans (start at a pointer, wrap once)
// without visiting absent members.
func (s *Set) NextOneFrom(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	wi := from >> 6
	w := s.words[wi] & (^uint64(0) << uint(from&63))
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
}

// Members appends the members in ascending order to dst and returns
// the extended slice. Pass a reused buffer to avoid allocation.
func (s *Set) Members(dst []int) []int {
	s.ForEach(func(p int) { dst = append(dst, p) })
	return dst
}

// Min returns the smallest member, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set like "{0,3,7}/16" for debugging and logs.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(p int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", p)
	})
	fmt.Fprintf(&b, "}/%d", s.n)
	return b.String()
}

// RandomBernoulli fills s with a fresh draw in which each port of the
// universe is included independently with probability b. The previous
// contents are discarded. The result may be empty; callers that need a
// non-empty fanout must handle that case (see the traffic package for
// why empty draws are mapped to "no arrival").
func (s *Set) RandomBernoulli(r *xrand.Rand, b float64) { r.BernoulliBits(s.words, s.n, b) }

// RandomKSubset fills s with a uniform random k-subset of the universe.
// The previous contents are discarded. It panics if k is outside
// [0, n].
func (s *Set) RandomKSubset(r *xrand.Rand, k int) {
	if k < 0 || k > s.n {
		panic(fmt.Sprintf("destset: k-subset size %d outside [0,%d]", k, s.n))
	}
	r.SampleBits(s.words, s.n, k)
}

// RandomKSubsetFloyd fills s with a uniform random k-subset of the
// universe using Floyd's algorithm: O(k) RNG draws against the O(n)
// full pass of RandomKSubset. The subset *distribution* is identical,
// but the draw count and sequence differ, so this belongs only on
// relaxed-identity paths (fast-mode traffic); bit-exact runs must keep
// using RandomKSubset. It panics if k is outside [0, n].
func (s *Set) RandomKSubsetFloyd(r *xrand.Rand, k int) {
	if k < 0 || k > s.n {
		panic(fmt.Sprintf("destset: k-subset size %d outside [0,%d]", k, s.n))
	}
	s.Clear()
	for j := s.n - k; j < s.n; j++ {
		p := r.Intn(j + 1)
		if s.Contains(p) {
			s.Add(j)
		} else {
			s.Add(p)
		}
	}
}
