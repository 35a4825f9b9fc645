package destset

import (
	"math"
	"testing"
	"testing/quick"

	"voqsim/internal/xrand"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(100)
	for _, p := range []int{0, 1, 63, 64, 65, 99} {
		if s.Contains(p) {
			t.Fatalf("fresh set contains %d", p)
		}
		s.Add(p)
		if !s.Contains(p) {
			t.Fatalf("added %d not contained", p)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 5 {
		t.Fatalf("remove failed: %v", s)
	}
	s.Remove(64) // removing absent member is a no-op
	if s.Count() != 5 {
		t.Fatal("double remove changed count")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, fn := range map[string]func(*Set){
		"Add":      func(s *Set) { s.Add(16) },
		"AddNeg":   func(s *Set) { s.Add(-1) },
		"Remove":   func(s *Set) { s.Remove(16) },
		"Contains": func(s *Set) { s.Contains(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s out of range did not panic", name)
				}
			}()
			fn(New(16))
		}()
	}
}

func TestNewPanicsOnBadUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestEmptyClear(t *testing.T) {
	s := FromMembers(16, 3, 9)
	if s.Empty() {
		t.Fatal("non-empty set reports Empty")
	}
	s.Clear()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("Clear did not empty the set")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromMembers(70, 1, 65)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("Clone shares storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestAliasWalksSlab(t *testing.T) {
	const n = 70
	slab := make([]uint64, 3*WordsPerRow(n))
	view := New(n)
	for row, port := range []int{1, 65, 69} {
		view.Alias(slab[row*WordsPerRow(n) : (row+1)*WordsPerRow(n)])
		view.Add(port)
	}
	// Each write landed in its own row, and a re-aliased view reads it.
	if slab[0] != 1<<1 || slab[3] != 1<<1 || slab[5] != 1<<5 {
		t.Fatalf("slab after three aliased writes: %#x", slab)
	}
	view.Alias(slab[2:4])
	if !view.Equal(FromMembers(n, 65)) {
		t.Fatalf("view over row 1 = %v, want {65}", view)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a row of the wrong length did not panic")
		}
	}()
	view.Alias(slab[:1])
}

func TestEqual(t *testing.T) {
	if !FromMembers(16, 1, 2).Equal(FromMembers(16, 2, 1)) {
		t.Fatal("order-insensitive equality failed")
	}
	if FromMembers(16, 1).Equal(FromMembers(16, 2)) {
		t.Fatal("distinct sets equal")
	}
	if FromMembers(16, 1).Equal(FromMembers(17, 1)) {
		t.Fatal("distinct universes equal")
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("universe mismatch did not panic")
		}
	}()
	New(16).CopyFrom(New(17))
}

func TestForEachAscendingAndMembers(t *testing.T) {
	s := FromMembers(200, 5, 0, 199, 64, 63)
	var got []int
	s.ForEach(func(p int) { got = append(got, p) })
	want := []int{0, 5, 63, 64, 199}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	m := s.Members(nil)
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Members = %v", m)
		}
	}
}

func TestMin(t *testing.T) {
	if New(16).Min() != -1 {
		t.Fatal("empty Min != -1")
	}
	if got := FromMembers(200, 130, 70).Min(); got != 70 {
		t.Fatalf("Min = %d", got)
	}
}

func TestString(t *testing.T) {
	if got := FromMembers(16, 0, 3).String(); got != "{0,3}/16" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}/4" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Count equals the number of ForEach visits, and every visited
// member answers Contains.
func TestCountConsistentProperty(t *testing.T) {
	r := xrand.New(99)
	f := func(nRaw uint8, seed uint16) bool {
		n := int(nRaw%150) + 1
		s := New(n)
		rr := r.Split("prop", int(seed))
		for i := 0; i < n/2; i++ {
			s.Add(rr.Intn(n))
		}
		visits := 0
		ok := true
		s.ForEach(func(p int) {
			visits++
			if !s.Contains(p) {
				ok = false
			}
		})
		return ok && visits == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWordsPerRow(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {1000, 16},
	} {
		if got := WordsPerRow(tc.n); got != tc.want {
			t.Errorf("WordsPerRow(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if got := len(New(tc.n).Words()); got != tc.want {
			t.Errorf("len(New(%d).Words()) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// wordMembers decodes Words() the way the match kernels do: trailing-
// zero bit iteration in ascending word order.
func wordMembers(s *Set) []int {
	var out []int
	for wi, w := range s.Words() {
		base := wi << 6
		for w != 0 {
			out = append(out, base+trailingZeros(w))
			w &= w - 1
		}
	}
	return out
}

func trailingZeros(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

// Property: bit-iterating Words() visits exactly the members ForEach
// visits, in the same ascending order — the contract the word-parallel
// match kernels rely on.
func TestWordsMatchForEachProperty(t *testing.T) {
	r := xrand.New(41)
	f := func(nRaw uint8, seed uint16, density uint8) bool {
		n := int(nRaw%200) + 1
		rr := r.Split("words", int(seed))
		s := New(n)
		s.RandomBernoulli(rr, float64(density%100)/100)
		var viaForEach []int
		s.ForEach(func(p int) { viaForEach = append(viaForEach, p) })
		viaWords := wordMembers(s)
		if len(viaWords) != len(viaForEach) {
			return false
		}
		for i := range viaWords {
			if viaWords[i] != viaForEach[i] {
				return false
			}
		}
		// No stray bits above the universe in the last word.
		if rem := n & 63; rem != 0 {
			last := s.Words()[len(s.Words())-1]
			if last&^(1<<uint(rem)-1) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNextOneFrom(t *testing.T) {
	s := FromMembers(200, 0, 5, 63, 64, 130, 199)
	for _, tc := range []struct{ from, want int }{
		{-10, 0}, {0, 0}, {1, 5}, {5, 5}, {6, 63}, {63, 63}, {64, 64},
		{65, 130}, {130, 130}, {131, 199}, {199, 199}, {200, -1}, {500, -1},
	} {
		if got := s.NextOneFrom(tc.from); got != tc.want {
			t.Errorf("NextOneFrom(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	if got := New(70).NextOneFrom(0); got != -1 {
		t.Errorf("empty NextOneFrom(0) = %d, want -1", got)
	}
}

// Property: NextOneFrom(from) returns the smallest member >= from, and
// chaining NextOneFrom(prev+1) from -1 enumerates exactly Members().
func TestNextOneFromProperty(t *testing.T) {
	r := xrand.New(42)
	f := func(nRaw uint8, seed uint16, fromRaw int16) bool {
		n := int(nRaw%200) + 1
		rr := r.Split("next", int(seed))
		s := New(n)
		s.RandomBernoulli(rr, 0.2)
		// Reference answer by linear scan.
		from := int(fromRaw) % (n + 64)
		want := -1
		for p := max(from, 0); p < n; p++ {
			if s.Contains(p) {
				want = p
				break
			}
		}
		if got := s.NextOneFrom(from); got != want {
			return false
		}
		// Full enumeration via chaining must equal Members.
		var chained []int
		for p := s.NextOneFrom(0); p >= 0; p = s.NextOneFrom(p + 1) {
			chained = append(chained, p)
		}
		members := s.Members(nil)
		if len(chained) != len(members) {
			return false
		}
		for i := range chained {
			if chained[i] != members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBernoulliRate(t *testing.T) {
	r := xrand.New(7)
	const n, trials, b = 64, 5000, 0.2
	s := New(n)
	total := 0
	for i := 0; i < trials; i++ {
		s.RandomBernoulli(r, b)
		total += s.Count()
	}
	mean := float64(total) / trials
	want := b * n
	if math.Abs(mean-want) > 0.2 {
		t.Fatalf("mean fanout %v, want %v", mean, want)
	}
}

func TestRandomKSubset(t *testing.T) {
	r := xrand.New(8)
	s := New(40)
	for k := 0; k <= 40; k += 5 {
		s.RandomKSubset(r, k)
		if s.Count() != k {
			t.Fatalf("k-subset of size %d has %d members", k, s.Count())
		}
	}
}

func TestRandomKSubsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized k did not panic")
		}
	}()
	New(4).RandomKSubset(xrand.New(1), 5)
}

// TestNewSlab: a slab of sets costs the same two allocations whatever
// its size, yet its sets share no words. Writing every word of one set,
// and appending past its row, leaves its neighbours untouched.
func TestNewSlab(t *testing.T) {
	if a := testing.AllocsPerRun(10, func() { NewSlab(130, 64) }); a != 2 {
		t.Fatalf("NewSlab: %.0f allocations, want 2 (the sets and their words)", a)
	}
	for _, n := range []int{1, 63, 64, 65, 130} {
		sets := NewSlab(n, 5)
		for i := range sets {
			if sets[i].Universe() != n || !sets[i].Empty() || cap(sets[i].Words()) != WordsPerRow(n) {
				t.Fatalf("n=%d: slab set %d is not an empty, row-capped set over %d ports", n, i, n)
			}
		}
		mid := sets[2].Words()
		for i := range mid {
			mid[i] = ^uint64(0)
		}
		_ = append(mid, ^uint64(0))
		for i := range sets {
			if i == 2 {
				continue
			}
			for wi, w := range sets[i].Words() {
				if w != 0 {
					t.Fatalf("n=%d: writing set 2 changed word %d of set %d to %#x", n, wi, i, w)
				}
			}
		}
	}
}

func BenchmarkForEach16(b *testing.B) {
	s := FromMembers(16, 0, 2, 5, 9, 15)
	sink := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(p int) { sink += p })
	}
	_ = sink
}

func BenchmarkRandomBernoulli16(b *testing.B) {
	r := xrand.New(1)
	s := New(16)
	for i := 0; i < b.N; i++ {
		s.RandomBernoulli(r, 0.2)
	}
}
