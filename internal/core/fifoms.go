package core

import (
	"math"
	"math/bits"

	"voqsim/internal/destset"
	"voqsim/internal/obs"
	"voqsim/internal/xrand"
)

// FIFOMS is the paper's First-In-First-Out Multicast Scheduling
// algorithm (Section III, Table 2): an iterative two-step matcher.
//
// In each round, every still-free input port finds the smallest time
// stamp among the HOL address cells of its VOQs whose output ports are
// still free, and requests exactly those outputs (all such cells belong
// to one multicast packet, so an input never risks being asked for two
// different data cells). Every still-free output port grants the
// request with the smallest time stamp, breaking ties uniformly at
// random. Granted inputs and outputs are reserved for the slot, and
// rounds repeat until one produces no grant. There is no accept step:
// all grants an input collects in a round are for the same packet, so
// they can all stand — this is both what exploits the crossbar's
// multicast capability and what saves FIFOMS one message exchange per
// round compared to iSLIP/PIM.
//
// The implementation is the word-parallel kernel described in
// DESIGN.md § Match kernel: it visits the non-empty VOQs through the
// switch's occupancy bitmaps (Switch.occIn), reads each HOL stamp from
// its head cell, keeps every port set and request set as packed uint64
// words, seeds the first round from the switch's oldest-stamp cache and
// after it recomputes requests only for the free inputs that had one.
// The grant step visits only actual requesters of each output via the
// transposed request bitmap. internal/check/oracle is the O(N³)
// reference kernel, and the differential test pins this one to it bit
// for bit.
//
// The zero value is ready to use; FIFOMS keeps no state between slots
// (its fairness comes entirely from time stamps).
type FIFOMS struct {
	// MaxRounds, if positive, caps the number of request/grant rounds
	// per slot. The paper's algorithm iterates to convergence (at most
	// N rounds); the cap exists for the convergence-ablation
	// experiments. Zero means unlimited.
	MaxRounds int

	// NoFanoutSplitting, if true, makes an input request only when
	// *all* remaining destinations of its oldest packet are free, and
	// withdraws the slot's grants unless every requested output grants
	// — the no-splitting discipline whose throughput loss the paper's
	// conclusion warns about. Used by the splitting ablation.
	NoFanoutSplitting bool

	// Scratch, sized on first use. Every slice below is allocated
	// together under the single scratchN guard — sizing them from
	// independent length checks once let an arbiter reused across
	// switch sizes alias stale scratch (see TestFIFOMSReuseAcrossSizes).
	scratchN int
	words    int      // word stride: destset.WordsPerRow(scratchN)
	minTS    []int64  // per input: requested time stamp, -1 = no request
	reqMask  []uint64 // [n×words] per-input requested-output mask
	reqT     []uint64 // [n×words] per-output requester mask (transpose)
	reqOut   []uint64 // [words] outputs with at least one requester
	inFree   []uint64 // [words] free-input set
	outFree  []uint64 // [words] free-output set
	granted  []int    // per-output provisional grant within a round
	grants   []int    // outputs granted in the current round
}

// Name implements Arbiter.
func (f *FIFOMS) Name() string {
	if f.NoFanoutSplitting {
		return "fifoms-nosplit"
	}
	return "fifoms"
}

// Mode implements Arbiter: FIFOMS runs on the paper's shared-data-cell
// queue structure.
func (f *FIFOMS) Mode() PreprocessMode { return ModeShared }

// ensure sizes all scratch for an n-port switch. scratchN is the only
// guard: either every slice is rebuilt for n or none is, so a FIFOMS
// reused across switches of different sizes can never mix strides.
func (f *FIFOMS) ensure(n int) {
	if f.scratchN == n {
		return
	}
	f.scratchN = n
	f.words = destset.WordsPerRow(n)
	f.minTS = make([]int64, n)
	f.reqMask = make([]uint64, n*f.words)
	f.reqT = make([]uint64, n*f.words)
	f.reqOut = make([]uint64, f.words)
	f.inFree = make([]uint64, f.words)
	f.outFree = make([]uint64, f.words)
	f.granted = make([]int, n)
	f.grants = make([]int, 0, n)
}

// Match implements Arbiter.
func (f *FIFOMS) Match(s *Switch, slot int64, r *xrand.Rand, m *Matching) {
	n := s.Ports()
	f.ensure(n)
	destset.FillPorts(f.inFree, n)
	destset.FillPorts(f.outFree, n)

	// o is off in ordinary runs; every observation below hides behind
	// one predictable branch so the kernel's hot loops are untouched.
	o := s.Probe()

	maxRounds := f.MaxRounds
	if maxRounds <= 0 {
		maxRounds = math.MaxInt
	}

	if f.NoFanoutSplitting {
		f.matchNoSplit(s, n, maxRounds, r, m, slot, o)
		return
	}

	w := f.words
	for round := 0; round < maxRounds; round++ {
		// Request step. Round 0 copies the switch's oldest-stamp cache:
		// with every output free, the smallest stamp over free outputs
		// is the smallest over all VOQ heads. In a later round every
		// still-free input that requested lost every output it asked
		// for — a requested output always grants, since its column
		// holds a requester — so each one falls back to its
		// next-smallest stamp over the outputs still free. An input
		// without a request stays without one: occupancy cannot change
		// inside Match and the free-output set only shrinks.
		if round == 0 {
			f.seedRequests(s, n)
		} else {
			for wi := 0; wi < w; wi++ {
				for fw := f.inFree[wi]; fw != 0; fw &= fw - 1 {
					if in := wi<<6 + bits.TrailingZeros64(fw); f.minTS[in] >= 0 {
						f.computeRequest(s, in)
					}
				}
			}
		}

		// Transpose the per-input masks into per-output requester sets.
		if !f.buildTranspose() {
			break // no requests, hence no grants: converged
		}
		if o.On() {
			f.observeRequests(o, slot, m.Rounds, false)
		}

		// Grant step over actual requesters only.
		if !f.grantStep(r) {
			break
		}
		if o.On() {
			f.observeGrants(o, slot, m.Rounds)
		}

		// Reserve the matched ports and record the grants.
		for _, out := range f.grants {
			in := f.granted[out]
			m.OutIn[out] = in
			f.outFree[out>>6] &^= 1 << uint(out&63)
			f.inFree[in>>6] &^= 1 << uint(in&63)
		}
		m.Rounds++
	}
}

// seedRequests seeds every input's request state from the switch's
// oldest-stamp cache (Switch.minHOL/minMask): with every output still
// free — round 0 of the splitting discipline, every round's base set
// under no-splitting — the smallest stamp over free outputs is exactly
// the cached minimum over all VOQ heads, and queue state cannot change
// inside Match. An input with no buffered cells has an all-zero
// minMask row (the cache maintenance zeroes it as the argmin set
// drains), so the copied mask is correct for it too and only minTS
// needs the empty-input branch. The cache itself is cross-checked
// against a direct scan of the VOQ heads by TestCachedHOLStateCoherent.
func (f *FIFOMS) seedRequests(s *Switch, n int) {
	copy(f.reqMask, s.minMask[:n*f.words])
	for in := 0; in < n; in++ {
		if mh := s.minHOL[in]; mh != emptyHOL {
			f.minTS[in] = mh
		} else {
			f.minTS[in] = -1
		}
	}
}

// computeRequest fills input in's request state for the splitting
// discipline: the smallest HOL stamp over its non-empty VOQs whose
// outputs are still free, and the mask of outputs holding that stamp
// (Table 2's smallest_time_stamp, computed by argminHOL over the
// occupancy-AND-free intersection).
func (f *FIFOMS) computeRequest(s *Switch, in int) {
	w := f.words
	var best int64
	if w == 1 && !s.ranked {
		f.reqMask[in], best = argminHOL(s.rows[in], s.arena.cells, s.occIn[in]&f.outFree[0])
	} else {
		best = argminHOLWide(s.rows[in], s.arena.cells, s.occIn[in*w:in*w+w], f.outFree, f.reqMask[in*w:in*w+w], s.ranked)
	}
	if best == emptyHOL {
		best = -1
	}
	f.minTS[in] = best
}

// buildTranspose rebuilds reqT — for every output, the set of free
// inputs requesting it — and reqOut, the set of outputs with at least
// one requester, from the per-input masks, and reports whether any
// request exists at all.
func (f *FIFOMS) buildTranspose() bool {
	w := f.words
	clear(f.reqT)
	clear(f.reqOut)
	if w == 1 {
		// Single-word layout: row masks are scalars and the requester
		// bit scatter indexes reqT directly. An input without a request
		// has a zero row and scatters nothing.
		reqT := f.reqT
		var reqOut uint64
		for fw := f.inFree[0]; fw != 0; fw &= fw - 1 {
			in := bits.TrailingZeros64(fw)
			row := f.reqMask[in]
			reqOut |= row
			ibit := uint64(1) << uint(in)
			for mv := row; mv != 0; mv &= mv - 1 {
				reqT[bits.TrailingZeros64(mv)] |= ibit
			}
		}
		f.reqOut[0] = reqOut
		return reqOut != 0
	}
	any := false
	for wi := 0; wi < w; wi++ {
		fw := f.inFree[wi]
		for fw != 0 {
			in := wi<<6 + bits.TrailingZeros64(fw)
			fw &= fw - 1
			if f.minTS[in] < 0 {
				continue
			}
			any = true
			f.scatterRow(in)
		}
	}
	return any
}

// scatterRow sets input in's bit in reqT for every output of its
// request mask, and the outputs themselves in reqOut.
func (f *FIFOMS) scatterRow(in int) {
	w := f.words
	row := f.reqMask[in*w : in*w+w]
	iword, ibit := in>>6, uint64(1)<<uint(in&63)
	for mw := 0; mw < w; mw++ {
		mv := row[mw]
		f.reqOut[mw] |= mv
		base := mw << 6
		for mv != 0 {
			out := base + bits.TrailingZeros64(mv)
			mv &= mv - 1
			f.reqT[out*w+iword] |= ibit
		}
	}
}

// grantStep runs one grant round: every free output with at least one
// requester picks the smallest-stamp requester from its reqT set, ties
// broken uniformly at random (reservoir sampling keeps it single-pass;
// the scan order is ascending input index, matching the reference
// kernel's RNG draw sequence exactly). Outputs outside reqOut draw no
// randomness and grant nothing, so skipping them is draw-for-draw
// identical to visiting them; their stale granted[out] entries are
// never read (grants lists only visited outputs, and the no-splitting
// withdrawal only inspects outputs its inputs requested). It records
// grants in granted/grants and reports whether any output granted.
func (f *FIFOMS) grantStep(r *xrand.Rand) bool {
	w := f.words
	f.grants = f.grants[:0]
	if w == 1 {
		f.grantStepW1(r)
		return len(f.grants) > 0
	}
	for wi := 0; wi < w; wi++ {
		ow := f.outFree[wi] & f.reqOut[wi]
		for ow != 0 {
			out := wi<<6 + bits.TrailingZeros64(ow)
			ow &= ow - 1
			col := f.reqT[out*w : out*w+w]
			bestTS := int64(math.MaxInt64)
			g := None
			ties := 0
			for ci := 0; ci < w; ci++ {
				// Requester columns are sparse (one output rarely has
				// requesters across many input words), so an unrolled
				// OR over four words skips whole empty chunks with one
				// branch. The set bits are still visited in ascending
				// input order, so the RNG draw sequence is unchanged.
				if ci+4 <= w && col[ci]|col[ci+1]|col[ci+2]|col[ci+3] == 0 {
					ci += 3
					continue
				}
				cv := col[ci]
				base := ci << 6
				for cv != 0 {
					in := base + bits.TrailingZeros64(cv)
					cv &= cv - 1
					switch ts := f.minTS[in]; {
					case ts < bestTS:
						bestTS, g, ties = ts, in, 1
					case ts == bestTS:
						// Equal stamps: sample uniformly over the ties.
						ties++
						if r.Intn(ties) == 0 {
							g = in
						}
					}
				}
			}
			f.granted[out] = g
			if g != None {
				f.grants = append(f.grants, out)
			}
		}
	}
	return len(f.grants) > 0
}

// grantStepW1 is grantStep's single-word (n <= 64) specialization:
// requester columns are scalars, so the whole round runs on registers
// plus one minTS load per requester. The visit order — free requested
// outputs ascending, requesters ascending within each — and therefore
// the RNG draw sequence is identical to the generic path.
func (f *FIFOMS) grantStepW1(r *xrand.Rand) {
	reqT := f.reqT
	minTS := f.minTS
	for ow := f.outFree[0] & f.reqOut[0]; ow != 0; ow &= ow - 1 {
		out := bits.TrailingZeros64(ow)
		cv := reqT[out]
		if cv&(cv-1) == 0 {
			// Lone requester — the argmin masks are sparse, so this is
			// the common case. It wins unconditionally and draws no
			// randomness in the general loop either (the first
			// requester never reaches the tie branch), so skipping the
			// stamp comparison entirely is draw-for-draw identical.
			f.granted[out] = bits.TrailingZeros64(cv)
			f.grants = append(f.grants, out)
			continue
		}
		bestTS := int64(math.MaxInt64)
		g := None
		ties := 0
		for ; cv != 0; cv &= cv - 1 {
			in := bits.TrailingZeros64(cv)
			ts := minTS[in]
			// The tie draw runs first, against the minimum so far, so
			// the generator is consulted at exactly the requesters and
			// with exactly the arguments of the reservoir loop; a new
			// minimum then folds in with conditional moves.
			if ts == bestTS {
				ties++
				if r.Intn(ties) == 0 {
					g = in
				}
			}
			if ts < bestTS {
				g, ties = in, 1
			}
			bestTS = min(bestTS, ts)
		}
		// A requested output always finds a requester: reqOut[0] has
		// out's bit only because some row scattered into reqT[out].
		f.granted[out] = g
		f.grants = append(f.grants, out)
	}
}

// observeRequests reports each requested (input, output) pair of the
// current round — the request side of the grant/request-ratio metric.
// Under the no-splitting discipline (nosplit true) an input's request
// only stands if every output of its mask is still free. Only called
// with an observer attached.
func (f *FIFOMS) observeRequests(o *obs.Probe, slot int64, round int, nosplit bool) {
	w := f.words
	for wi := 0; wi < w; wi++ {
		fw := f.inFree[wi]
		for fw != 0 {
			in := wi<<6 + bits.TrailingZeros64(fw)
			fw &= fw - 1
			if f.minTS[in] < 0 || (nosplit && !f.participates(in)) {
				continue
			}
			row := f.reqMask[in*w : in*w+w]
			for mw, mv := range row {
				base := mw << 6
				for mv != 0 {
					out := base + bits.TrailingZeros64(mv)
					mv &= mv - 1
					o.Request(slot, round, in, out, f.minTS[in], -1)
				}
			}
		}
	}
}

// observeGrants reports each grant standing after the round's grant
// step. Only called with an observer attached.
func (f *FIFOMS) observeGrants(o *obs.Probe, slot int64, round int) {
	for _, out := range f.grants {
		in := f.granted[out]
		o.Grant(slot, round, in, out, f.minTS[in], -1)
	}
}

// matchNoSplit is the all-or-nothing ablation's round loop. The
// request masks over *all* outputs are invariant across rounds
// (occupancy cannot change inside Match), so they are computed once;
// each round only re-filters against the shrinking free-output set.
func (f *FIFOMS) matchNoSplit(s *Switch, n, maxRounds int, r *xrand.Rand, m *Matching, slot int64, o *obs.Probe) {
	w := f.words
	f.seedRequests(s, n)

	for round := 0; round < maxRounds; round++ {
		// Filter + transpose: an input participates only while it is
		// free and every destination of its oldest packet is still
		// free (some destination reserved ⇒ the packet waits whole).
		clear(f.reqT)
		clear(f.reqOut)
		any := false
		for wi := 0; wi < w; wi++ {
			fw := f.inFree[wi]
			for fw != 0 {
				in := wi<<6 + bits.TrailingZeros64(fw)
				fw &= fw - 1
				if !f.participates(in) {
					continue
				}
				any = true
				f.scatterRow(in)
			}
		}
		if !any {
			break
		}
		if o.On() {
			f.observeRequests(o, slot, m.Rounds, true)
		}

		if !f.grantStep(r) {
			break
		}

		// Withdraw partial grants: if any requested output of an
		// input's packet was granted to someone else, the input's
		// grants this round are withdrawn.
		for wi := 0; wi < w; wi++ {
			fw := f.inFree[wi]
			for fw != 0 {
				in := wi<<6 + bits.TrailingZeros64(fw)
				fw &= fw - 1
				if !f.participates(in) {
					continue
				}
				f.withdrawIfPartial(in)
			}
		}

		// Keep only surviving grants.
		kept := f.grants[:0]
		for _, out := range f.grants {
			if f.granted[out] != None {
				kept = append(kept, out)
			}
		}
		f.grants = kept
		if len(f.grants) == 0 {
			// All grants this round were partial and withdrawn; a
			// further round would recompute the identical request set,
			// so the slot has converged.
			m.Rounds++
			break
		}
		if o.On() {
			// Only surviving (non-withdrawn) grants are observed.
			f.observeGrants(o, slot, m.Rounds)
		}

		for _, out := range f.grants {
			in := f.granted[out]
			m.OutIn[out] = in
			f.outFree[out>>6] &^= 1 << uint(out&63)
			f.inFree[in>>6] &^= 1 << uint(in&63)
		}
		m.Rounds++
	}
}

// participates reports whether free input in has a request this round
// under the no-splitting discipline: it has an oldest packet and every
// output in its mask is still free.
func (f *FIFOMS) participates(in int) bool {
	if f.minTS[in] < 0 {
		return false
	}
	w := f.words
	row := f.reqMask[in*w : in*w+w]
	for i, rv := range row {
		if rv&^f.outFree[i] != 0 {
			return false
		}
	}
	return true
}

// withdrawIfPartial clears input in's grants for the round unless it
// was granted every output of its request mask.
func (f *FIFOMS) withdrawIfPartial(in int) {
	w := f.words
	row := f.reqMask[in*w : in*w+w]
	complete := true
scan:
	for mw, mv := range row {
		base := mw << 6
		for mv != 0 {
			out := base + bits.TrailingZeros64(mv)
			mv &= mv - 1
			if f.granted[out] != in {
				complete = false
				break scan
			}
		}
	}
	if complete {
		return
	}
	for mw, mv := range row {
		base := mw << 6
		for mv != 0 {
			out := base + bits.TrailingZeros64(mv)
			mv &= mv - 1
			if f.granted[out] == in {
				f.granted[out] = None
			}
		}
	}
}
