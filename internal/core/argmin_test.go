package core

// Pins for the branch-free selections of the match kernel: argminHOL
// and argminHOLWide against the three-way compare loops they replaced,
// and grantStepW1's folded running minimum against the reservoir loop
// it replaced, draw for draw.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"voqsim/internal/xrand"
)

// refArgminHOL is the single-word argmin loop computeRequest and
// rescanMinHOL ran before argminHOL, verbatim but for its inputs and
// outputs; stamps[out] is VOQ(in,out)'s HOL stamp.
func refArgminHOL(stamps []int64, cand uint64) (uint64, int64) {
	best := emptyHOL
	var mask uint64
	for ; cand != 0; cand &= cand - 1 {
		out := bits.TrailingZeros64(cand)
		switch ts := stamps[out]; {
		case ts < best:
			best = ts
			mask = 1 << uint(out)
		case ts == best:
			mask |= 1 << uint(out)
		}
	}
	return mask, best
}

// refArgminHOLWide is the multi-word argmin loop of the same two
// functions, verbatim; rescanMinHOL's copy ran over occ alone, which is
// free == nil here.
func refArgminHOLWide(stamps []int64, occ, of, mask []uint64) int64 {
	if of == nil {
		of = occ
	}
	w := len(mask)
	best := emptyHOL
	for i := range mask {
		mask[i] = 0
	}
	for wi := 0; wi < w; wi++ {
		if wi+4 <= w && occ[wi]&of[wi]|occ[wi+1]&of[wi+1]|occ[wi+2]&of[wi+2]|occ[wi+3]&of[wi+3] == 0 {
			wi += 3
			continue
		}
		cand := occ[wi] & of[wi]
		bitsBase := wi << 6
		for cand != 0 {
			out := bitsBase + bits.TrailingZeros64(cand)
			cand &= cand - 1
			switch ts := stamps[out]; {
			case ts < best:
				best = ts
				for i := 0; i <= wi; i++ {
					mask[i] = 0
				}
				mask[wi] = 1 << uint(out&63)
			case ts == best:
				mask[wi] |= 1 << uint(out&63)
			}
		}
	}
	return best
}

// randomBits returns a w-word set over n bits whose words are, at
// random, empty, sparse or dense — so wide rows have the all-empty
// four-word chunks the early exit skips as well as full ones.
func randomBits(r *xrand.Rand, n int) []uint64 {
	ws := make([]uint64, (n+63)/64)
	for wi := range ws {
		p := []float64{0, 0.08, 0.85}[r.Intn(3)]
		r.BernoulliBits(ws[wi:wi+1], min(64, n-wi*64), p)
	}
	return ws
}

// pushHOL queues cells on input in of s through pushCell, in the
// shape arrivals build: for every output in occ, stamps[out] at the
// head of VOQ(in,out) and one to two later stamps behind it at random,
// so a kernel that read the tail instead of the head would see a later
// stamp. The input's row is then dense or ranked as s's is.
func pushHOL(s *Switch, r *xrand.Rand, in int, stamps []int64, occ []uint64) {
	for wi, wv := range occ {
		for ; wv != 0; wv &= wv - 1 {
			out := wi<<6 + bits.TrailingZeros64(wv)
			for k := range 1 + r.Intn(3) {
				s.pushCell(in, out, stamps[out]+int64(k), 0)
			}
		}
	}
}

// drainHOL pops every cell of input in through popCell, leaving its
// row empty for the next pushHOL.
func drainHOL(t testing.TB, s *Switch, in int) {
	for out := range s.n {
		for s.VOQLen(in, out) > 0 {
			s.popCell(in, out)
		}
	}
	if s.ranked && len(s.rows[in]) != 0 {
		t.Fatalf("input %d drained, but its ranked row holds %d records", in, len(s.rows[in]))
	}
}

// randomStamps returns n HOL stamps from a small range, so equal stamps
// are common.
func randomStamps(r *xrand.Rand, n int) []int64 {
	stamps := make([]int64, n)
	span := 1 + r.Intn(5)
	for i := range stamps {
		stamps[i] = int64(100 + r.Intn(span))
	}
	return stamps
}

// TestArgminHOLMatchesReference holds the branch-free argmins to the
// loops they replaced on random rows with frequent ties, every mask
// word and the minimum, with and without a free-output filter and over
// empty candidate sets, on dense and on ranked rows built through
// pushCell. A "<=" for "<" in any of them, a skipped mask[:first]
// clear or a ranked index off by one fails it.
func TestArgminHOLMatchesReference(t *testing.T) {
	for _, ranked := range []bool{false, true} {
		r := xrand.New(2004)
		for _, n := range []int{1, 2, 9, 16, 63, 64, 65, 128, 256, 1024} {
			s := newSwitch(n, &FIFOMS{}, xrand.New(1), ranked)
			w := (n + 63) / 64
			for trial := 0; trial < 400; trial++ {
				stamps := randomStamps(r, n)
				occ := randomBits(r, n)
				var free []uint64
				if trial%2 == 1 {
					free = randomBits(r, n)
				}
				if trial%50 == 0 {
					clear(occ) // no candidates at all
				}
				pushHOL(s, r, 0, stamps, occ)
				want := make([]uint64, w)
				wantMin := refArgminHOLWide(stamps, occ, free, want)
				got := make([]uint64, w)
				for i := range got {
					got[i] = r.Uint64() // stale words the helper must overwrite
				}
				if gotMin := argminHOLWide(s.rows[0], s.arena.cells, s.OccInWords(0), free, got, ranked); gotMin != wantMin || !slices.Equal(got, want) {
					t.Fatalf("ranked=%v n=%d trial %d: argminHOLWide = %d %x, reference %d %x", ranked, n, trial, gotMin, got, wantMin, want)
				}
				if wantMin == emptyHOL && slices.ContainsFunc(want, func(v uint64) bool { return v != 0 }) {
					t.Fatalf("ranked=%v n=%d trial %d: no minimum but mask %x", ranked, n, trial, want)
				}
				if w == 1 && !ranked {
					cand := occ[0]
					if free != nil {
						cand &= free[0]
					}
					wantMask, wantMin1 := refArgminHOL(stamps, cand)
					if wantMask != want[0] || wantMin1 != wantMin {
						t.Fatalf("n=%d trial %d: the two reference loops disagree", n, trial)
					}
					if gotMask, gotMin := argminHOL(s.rows[0], s.arena.cells, cand); gotMask != wantMask || gotMin != wantMin1 {
						t.Fatalf("n=%d trial %d: argminHOL = %d %x, reference %d %x", n, trial, gotMin, gotMask, wantMin1, wantMask)
					}
				}
				drainHOL(t, s, 0)
			}
		}
	}
}

// refGrantStepW1 is grantStepW1 as it was before its running minimum
// was folded: the reservoir loop, verbatim but for returning the
// granted input per output and the granting outputs instead of writing
// them into f.
func refGrantStepW1(f *FIFOMS, r *xrand.Rand) (granted map[int]int, grants []int) {
	granted = map[int]int{}
	reqT := f.reqT
	minTS := f.minTS
	for ow := f.outFree[0] & f.reqOut[0]; ow != 0; ow &= ow - 1 {
		out := bits.TrailingZeros64(ow)
		cv := reqT[out]
		if cv&(cv-1) == 0 {
			granted[out] = bits.TrailingZeros64(cv)
			grants = append(grants, out)
			continue
		}
		bestTS := int64(math.MaxInt64)
		g := None
		ties := 0
		for ; cv != 0; cv &= cv - 1 {
			in := bits.TrailingZeros64(cv)
			switch ts := minTS[in]; {
			case ts < bestTS:
				bestTS, g, ties = ts, in, 1
			case ts == bestTS:
				ties++
				if r.Intn(ties) == 0 {
					g = in
				}
			}
		}
		granted[out] = g
		grants = append(grants, out)
	}
	return granted, grants
}

// runGrantW1 runs grantStepW1 on f and returns what it granted, in
// refGrantStepW1's shape.
func runGrantW1(f *FIFOMS, r *xrand.Rand) (map[int]int, []int) {
	f.grants = f.grants[:0]
	f.grantStepW1(r)
	granted := map[int]int{}
	for _, out := range f.grants {
		granted[out] = f.granted[out]
	}
	return granted, slices.Clone(f.grants)
}

// TestGrantFoldDrawIdentity drives grantStepW1 and the reservoir loop
// it replaced on cloned generators over random requester columns with
// frequent equal stamps: the winners and the generator states after
// the step must be equal. It starts with the column where a tie at
// the running minimum is later beaten (stamps 5, 5, 3 in ascending
// input order), which draws once.
func TestGrantFoldDrawIdentity(t *testing.T) {
	check := func(f *FIFOMS, r *xrand.Rand, what string) {
		t.Helper()
		ref := xrand.New(0)
		if err := ref.SetState(r.State()); err != nil {
			t.Fatal(err)
		}
		wantGranted, wantGrants := refGrantStepW1(f, ref)
		gotGranted, gotGrants := runGrantW1(f, r)
		if !slices.Equal(gotGrants, wantGrants) || fmt.Sprint(gotGranted) != fmt.Sprint(wantGranted) {
			t.Fatalf("%s: granted %v over %v, reference %v over %v", what, gotGranted, gotGrants, wantGranted, wantGrants)
		}
		if r.State() != ref.State() {
			t.Fatalf("%s: generator states diverged", what)
		}
	}

	f := &FIFOMS{}
	f.ensure(3)
	f.outFree[0], f.reqOut[0], f.reqT[0] = 1, 1, 0b111
	copy(f.minTS, []int64{5, 5, 3})
	r := xrand.New(9)
	once := xrand.New(0)
	if err := once.SetState(r.State()); err != nil {
		t.Fatal(err)
	}
	once.Intn(2)
	check(f, r, "stamps 5, 5, 3")
	if f.granted[0] != 2 || r.State() != once.State() {
		t.Fatalf("stamps 5, 5, 3: granted input %d, want 2 after exactly one draw", f.granted[0])
	}

	r = xrand.New(31)
	for _, n := range []int{2, 5, 9, 33, 64} {
		f := &FIFOMS{}
		f.ensure(n)
		all := uint64(1)<<uint(n) - 1
		if n == 64 {
			all = ^uint64(0)
		}
		for trial := 0; trial < 500; trial++ {
			f.outFree[0] = all &^ (r.Uint64() & r.Uint64())
			f.reqOut[0] = 0
			for out := 0; out < n; out++ {
				col := r.Uint64() & all
				if trial%3 == 0 {
					col &= r.Uint64() // sparser: more lone requesters
				}
				f.reqT[out] = col
				if col != 0 {
					f.reqOut[0] |= 1 << uint(out)
				}
			}
			span := 1 + r.Intn(4)
			for in := range f.minTS {
				f.minTS[in] = int64(r.Intn(span))
			}
			check(f, r, fmt.Sprintf("n=%d trial %d", n, trial))
		}
	}
}

// BenchmarkArgminHOL times argminHOL against the three-way loop it
// replaced on live-like state: a pool of n rows (one switch's HOL
// state) and 4096 pre-drawn (row, candidate set) pairs cycled through,
// so the branch predictor cannot learn the outcomes the way it learns
// one constant state rerun (BenchmarkFIFOMSMatch).
func BenchmarkArgminHOL(b *testing.B) {
	const pairs = 4096
	for _, n := range []int{16, 64} {
		r := xrand.New(uint64(n))
		s := newSwitch(n, &FIFOMS{}, xrand.New(1), false)
		stamps := make([][]int64, n)
		all := []uint64{^uint64(0) >> uint(64-n)} // every VOQ of the one-word row
		for in := range stamps {
			stamps[in] = make([]int64, n)
			for out := range stamps[in] {
				stamps[in][out] = int64(r.Intn(16))
			}
			pushHOL(s, r, in, stamps[in], all)
		}
		rows, cells := s.rows, s.arena.cells
		ins := make([]int, pairs)
		cands := make([]uint64, pairs)
		for i := range cands {
			ins[i], cands[i] = r.Intn(n), randomBits(r, n)[0]
		}
		for _, impl := range []struct {
			name       string
			branchFree bool
		}{{"branchfree", true}, {"reference", false}} {
			branchFree := impl.branchFree
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					k := i & (pairs - 1)
					var m uint64
					var best int64
					if branchFree {
						m, best = argminHOL(rows[ins[k]], cells, cands[k])
					} else {
						m, best = refArgminHOL(stamps[ins[k]], cands[k])
					}
					sink += m ^ uint64(best)
				}
				if sink == 1 {
					b.Log(sink)
				}
			})
		}
	}
}
