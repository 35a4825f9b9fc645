package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"voqsim/internal/cell"
	"voqsim/internal/obs"
	"voqsim/internal/xrand"
)

// inputPort is the per-port accounting of the paper's queue structure
// (Fig. 2). The cells themselves live in the switch's arena; the port
// keeps the counters the queue-size metric and the arrival guard need.
type inputPort struct {
	dataCells int // live data cells (the paper's queue-size metric)

	// lastArrival guards the queue structure's core assumption in
	// shared mode: at most one packet arrives per input per slot, so a
	// time stamp identifies a packet within one input (Section II).
	lastArrival int64
}

// emptyHOL is the cached-timestamp sentinel for an empty VOQ. It
// compares greater than every real arrival slot, so minimum scans need
// no empty-queue branch.
const emptyHOL = int64(math.MaxInt64)

// EmptyHOL is the exported sentinel HOLTime returns for an empty VOQ:
// math.MaxInt64, greater than any real arrival slot.
const EmptyHOL = emptyHOL

// Switch is a multicast VOQ packet switch: the queue structure of
// Section II joined to a pluggable arbiter (FIFOMS by default) and a
// multicast-capable crossbar. Create one with NewSwitch; it is not
// safe for concurrent use.
type Switch struct {
	n       int
	arbiter Arbiter
	mode    PreprocessMode
	ports   []inputPort
	match   *Matching
	rnd     *xrand.Rand

	// The cell store and the cached head-of-line state the match
	// kernels read (arena.go), held by value for the switch's whole
	// life: s.rows, s.occIn, s.minMask are its fields.
	arena

	// Running totals across ports, so BufferedCells and
	// BufferedAddressCells — called every slot by the engine — are O(1).
	totalData int64
	totalAddr int64

	lastRounds  int
	totalRounds int64
	activeSlots int64 // slots in which any cell was queued at arbitration time

	// Transfer accounting, kept for the snapshot: slots stepped, copies
	// and distinct cells carried, and slots in which some input sent
	// more than one copy.
	slots, copies, cells, multicastSlots int64

	// release, when set, receives each packet the switch is done with
	// (SetReleaseHook); nil means completed packets are left to the GC.
	release func(*cell.Packet)

	// Observability (DESIGN.md §8). obs is nil in ordinary runs — the
	// single nil check per instrumentation site is the whole disabled
	// cost. The metric handles below are cached at SetObserver time so
	// no per-slot path ever does a registry lookup; they are nil-safe
	// no-ops when metrics are off.
	obs         *obs.Observer
	cArrivals   *obs.Counter
	cEnqueues   *obs.Counter
	cDepartures *obs.Counter
	cCompleted  *obs.Counter
	cSplits     *obs.Counter
	cRounds     *obs.Counter
	cActive     *obs.Counter
	occHWM      []*obs.Gauge

	// The slot's crossbar configuration, reused every slot: grantW[in*
	// words ...] is the bitmap of outputs granted to input in, usedW the
	// bitmap of inputs with any grant. Step clears each word as it
	// consumes it, so both are all-zero between slots.
	grantW []uint64
	usedW  []uint64
}

// QueueCountTraditional returns the number of queues a traditional
// VOQ switch needs per input port to distinguish every multicast
// destination set: 2^n - 1 (Section I). The value saturates at
// MaxInt64 for n >= 63, where the point is made regardless.
func QueueCountTraditional(n int) int64 {
	if n <= 0 {
		panic("core: non-positive switch size")
	}
	if n >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(n) - 1
}

// QueueCountPaper returns the number of queues per input port under
// the paper's structure: n address-cell queues (Section II). The
// comparison with QueueCountTraditional is the paper's feasibility
// argument — 16 queues instead of 65535 for a 16-port switch.
func QueueCountPaper(n int) int64 {
	if n <= 0 {
		panic("core: non-positive switch size")
	}
	return int64(n)
}

// NewSwitch returns an n x n multicast VOQ switch scheduled by the
// given arbiter. root seeds the arbiter's tie-breaking randomness.
func NewSwitch(n int, arb Arbiter, root *xrand.Rand) *Switch {
	return newSwitch(n, arb, root, n > denseMaxPorts)
}

// newSwitch is NewSwitch with the VOQ row layout chosen by the caller:
// ranked rows or dense ones (arena.go). Every observable result is the
// same either way.
func newSwitch(n int, arb Arbiter, root *xrand.Rand, ranked bool) *Switch {
	if n <= 0 {
		panic("core: non-positive switch size")
	}
	s := &Switch{
		n:       n,
		arbiter: arb,
		mode:    arb.Mode(),
		ports:   make([]inputPort, n),
		match:   NewMatching(n),
		rnd:     root.Split("arbiter", 0),
		arena:   newArena(n, ranked),
	}
	for i := range s.ports {
		s.ports[i].lastArrival = -1
	}
	s.grantW = make([]uint64, n*s.words)
	s.usedW = make([]uint64, s.words)
	return s
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Arbiter returns the scheduling algorithm in use.
func (s *Switch) Arbiter() Arbiter { return s.arbiter }

// SetObserver attaches (or, with nil, detaches) the observability
// layer. Call it before the run starts: counters assume they saw
// every slot. The observer is shared with the arbiter, which reads it
// through Observer to emit per-round request/grant events.
func (s *Switch) SetObserver(o *obs.Observer) {
	s.obs = o
	s.cArrivals = o.Counter(obs.MetricArrivals)
	s.cEnqueues = o.Counter(obs.MetricEnqueues)
	s.cDepartures = o.Counter(obs.MetricDepartures)
	s.cCompleted = o.Counter(obs.MetricCompleted)
	s.cSplits = o.Counter(obs.MetricSplits)
	s.cRounds = o.Counter(obs.MetricRounds)
	s.cActive = o.Counter(obs.MetricActiveSlots)
	s.occHWM = nil
	if o.MetricsOn() {
		s.occHWM = make([]*obs.Gauge, s.n)
		for i := range s.occHWM {
			s.occHWM[i] = o.Gauge(obs.OccHWM(i))
		}
	}
}

// Observer returns the attached observability layer, nil when
// disabled. Arbiters fetch it once per Match call.
func (s *Switch) Observer() *obs.Observer { return s.obs }

// pushCell appends an address cell to VOQ(in,out) and keeps the cached
// HOL state coherent: a push onto an empty queue creates a new head,
// and in a ranked row opens the queue's record.
func (s *Switch) pushCell(in, out int, ts int64, data int32) {
	a := &s.arena
	idx := a.allocCell() // may move the slab: before any pointer into it
	k := a.rank(in, out)
	if wi, bit := in*s.words+out>>6, uint64(1)<<uint(out&63); s.occIn[wi]&bit == 0 {
		if a.ranked {
			a.rows[in] = slices.Insert(a.rows[in], k, voq{})
		}
		a.cells[idx] = acell{ts: ts, data: data, next: idx}
		s.occIn[wi] |= bit
		s.occOut[out*s.words+in>>6] |= 1 << uint(in&63)
		// A fresh head is the only push that can lower the input's
		// oldest stamp (a push onto a non-empty queue sits behind an
		// older head).
		switch mh := s.minHOL[in]; {
		case ts < mh:
			s.minHOL[in] = ts
			row := s.minMask[in*s.words : in*s.words+s.words]
			for i := range row {
				row[i] = 0
			}
			row[out>>6] = 1 << uint(out&63)
		case ts == mh:
			s.minMask[in*s.words+out>>6] |= 1 << uint(out&63)
		}
	} else {
		tail := &a.cells[a.rows[in][k].tail]
		a.cells[idx] = acell{ts: ts, data: data, next: tail.next}
		tail.next = idx
	}
	q := &a.rows[in][k]
	q.tail = idx
	q.size++
	s.totalAddr++
}

// popCell removes the head of VOQ(in,out) and keeps the cached HOL
// state coherent: the next cell, with its stamp, becomes the head, or
// the occupancy bits clear and a ranked row closes the queue's record.
// Popping an empty VOQ is an arbiter bug.
func (s *Switch) popCell(in, out int) acell {
	a := &s.arena
	wi, bit := in*s.words+out>>6, uint64(1)<<uint(out&63)
	if s.occIn[wi]&bit == 0 {
		panic(fmt.Sprintf("core: grant for empty VOQ (%d,%d)", in, out))
	}
	k := a.rank(in, out)
	row := a.rows[in]
	q := &row[k]
	tail := &a.cells[q.tail]
	head := tail.next
	c := a.cells[head]
	a.cells[head].next = a.free
	a.free = head
	q.size--
	s.totalAddr--
	if q.size == 0 {
		s.occIn[wi] &^= bit
		s.occOut[out*s.words+in>>6] &^= 1 << uint(in&63)
		if a.ranked {
			a.rows[in] = slices.Delete(row, k, k+1)
		}
	} else {
		tail.next = c.next
	}
	if c.ts == s.minHOL[in] {
		// The popped cell held the input's oldest stamp; stamps within
		// a VOQ strictly increase, so this queue leaves the argmin set.
		// When the set drains the next-oldest stamp takes over.
		s.minMask[in*s.words+out>>6] &^= 1 << uint(out&63)
		row := s.minMask[in*s.words : in*s.words+s.words]
		empty := true
		for _, wv := range row {
			if wv != 0 {
				empty = false
				break
			}
		}
		if empty {
			s.rescanMinHOL(in)
		}
	}
	return c
}

// rescanMinHOL recomputes input in's oldest-stamp cache from the HOL
// row. Called only when the argmin set drains — at most once per
// departing packet.
func (s *Switch) rescanMinHOL(in int) {
	w := s.words
	if w == 1 && !s.ranked {
		s.minMask[in], s.minHOL[in] = argminHOL(s.rows[in], s.arena.cells, s.occIn[in])
	} else {
		s.minHOL[in] = argminHOLWide(s.rows[in], s.arena.cells, s.occIn[in*w:in*w+w], nil, s.minMask[in*w:in*w+w], s.ranked)
	}
}

// argminHOL is Table 2's smallest_time_stamp over one input's dense HOL
// row (row[out] is VOQ(in,out), its cells in cells) on a single-word
// layout (n <= 64): the smallest stamp among the non-empty VOQs in cand and
// the mask of those holding it, or emptyHOL and 0 for an empty cand. Like the comparator
// tree of Section IV.A it selects and never branches on a stamp: each
// candidate folds into (mask, best) through conditional moves
// (CMOVQNE/CMOVQGT under go build -gcflags=-S), because the three-way
// compare it replaced was mispredicted on live queue state.
func argminHOL(row []voq, cells []acell, cand uint64) (mask uint64, best int64) {
	best = emptyHOL
	for ; cand != 0; cand &= cand - 1 {
		out := bits.TrailingZeros64(cand)
		mask, best = foldMin(mask, best, cells[cells[row[out].tail].next].ts, uint64(1)<<uint(out))
	}
	return mask, best
}

// foldMin folds one candidate, stamp ts at mask bit bit, into the
// running argmin set m of the running minimum best.
func foldMin(m uint64, best, ts int64, bit uint64) (uint64, int64) {
	mm := m | bit
	if ts != best {
		mm = m
	}
	if ts < best {
		mm = bit
	}
	return mm, min(best, ts)
}

// argminHOLWide is argminHOL over a multi-word row, dense or ranked
// (arena.go): candidates are occ ∩ free (occ alone when free is nil),
// the mask goes to mask and the minimum is returned. A dense row holds
// a candidate's record at its output; a ranked row at base, the
// running popcount of the words of occ already passed, plus the
// popcount of occ below it in its own word. It is one pass: every word
// folds against the running minimum, and first records the word where
// the final minimum first appears. The words before first hold only
// stale, larger minima, and every later word was folded against the
// final one, so clearing mask[:first] leaves exactly the argmin set.
func argminHOLWide(row []voq, cells []acell, occ, free, mask []uint64, ranked bool) int64 {
	if free == nil {
		free = occ
	}
	w := len(mask)
	best, first, base := emptyHOL, 0, 0
	for wi := 0; wi < w; wi++ {
		// Four-word unrolled early exit: wide rows are mostly empty
		// words, and the visit order of set bits is unchanged.
		if wi+4 <= w && occ[wi]&free[wi]|occ[wi+1]&free[wi+1]|occ[wi+2]&free[wi+2]|occ[wi+3]&free[wi+3] == 0 {
			mask[wi], mask[wi+1], mask[wi+2], mask[wi+3] = 0, 0, 0, 0
			if ranked {
				base += bits.OnesCount64(occ[wi]) + bits.OnesCount64(occ[wi+1]) +
					bits.OnesCount64(occ[wi+2]) + bits.OnesCount64(occ[wi+3])
			}
			wi += 3
			continue
		}
		prev, m, o := best, uint64(0), occ[wi]
		for cand := o & free[wi]; cand != 0; cand &= cand - 1 {
			b := uint(bits.TrailingZeros64(cand))
			k := wi<<6 + int(b)
			if ranked {
				k = base + bits.OnesCount64(o&(1<<b-1))
			}
			m, best = foldMin(m, best, cells[cells[row[k].tail].next].ts, 1<<b)
		}
		if ranked {
			base += bits.OnesCount64(o)
		}
		mask[wi] = m
		if best < prev {
			first = wi
		}
	}
	clear(mask[:first])
	return best
}

// Arrive preprocesses a packet into the input buffers following
// Table 1 of the paper. In ModeShared one data cell is created and one
// address cell per destination is appended to the corresponding VOQ;
// in ModeCopied every destination gets a private data cell, modelling
// schedulers that treat multicast as independent unicasts.
func (s *Switch) Arrive(p *cell.Packet) {
	if p.Input < 0 || p.Input >= s.n {
		panic(fmt.Sprintf("core: arrival at invalid input %d", p.Input))
	}
	if p.Dests.Universe() != s.n {
		panic(fmt.Sprintf("core: packet destination universe %d on %d-port switch", p.Dests.Universe(), s.n))
	}
	fanout := p.Dests.Count()
	if fanout == 0 {
		panic("core: arrival with empty destination set")
	}
	port := &s.ports[p.Input]
	words := p.Dests.Words()
	switch s.mode {
	case ModeShared:
		// A slotted switch receives at most one fixed-size packet per
		// input per slot, and FIFOMS relies on it: address cells with
		// equal stamps at one input MUST belong to one packet, or an
		// input could be granted two data cells in a slot. Reject
		// violations at the door rather than corrupting a schedule.
		if p.Arrival <= port.lastArrival {
			panic(fmt.Sprintf("core: packet arrived at input %d in slot %d, not after the previous arrival (slot %d); the shared queue structure admits one arrival per input per slot",
				p.Input, p.Arrival, port.lastArrival))
		}
		port.lastArrival = p.Arrival
		data := s.arena.allocData(p, int32(fanout), int32(fanout))
		port.dataCells++
		s.totalData++
		for wi, wv := range words {
			base := wi << 6
			for wv != 0 {
				out := base + bits.TrailingZeros64(wv)
				wv &= wv - 1
				s.pushCell(p.Input, out, p.Arrival, data)
			}
		}
	case ModeCopied:
		own := s.arena.allocOwner(int32(fanout))
		for wi, wv := range words {
			base := wi << 6
			for wv != 0 {
				out := base + bits.TrailingZeros64(wv)
				wv &= wv - 1
				data := s.arena.allocCopy(p, own, int32(fanout))
				port.dataCells++
				s.totalData++
				s.pushCell(p.Input, out, p.Arrival, data)
			}
		}
	default:
		panic("core: unknown preprocess mode")
	}
	if s.obs != nil {
		s.observeArrival(p, fanout)
	}
}

// observeArrival records a packet's arrival and per-destination
// enqueues; only called with an observer attached.
func (s *Switch) observeArrival(p *cell.Packet, fanout int) {
	if s.obs.TraceOn() {
		s.obs.Trace.Emit(obs.Event{
			Slot: p.Arrival, Type: obs.EvArrival, In: int32(p.Input), Out: -1,
			Round: -1, Aux: int32(fanout), TS: p.Arrival, Packet: int64(p.ID),
		})
		p.Dests.ForEach(func(out int) {
			s.obs.Trace.Emit(obs.Event{
				Slot: p.Arrival, Type: obs.EvEnqueue, In: int32(p.Input), Out: int32(out),
				Round: -1, TS: p.Arrival, Packet: int64(p.ID),
			})
		})
	}
	s.cArrivals.Inc()
	s.cEnqueues.Add(int64(fanout))
	if s.occHWM != nil {
		s.occHWM[p.Input].Max(int64(s.ports[p.Input].dataCells))
	}
}

// VOQLen returns the length of input in's VOQ for output out.
func (s *Switch) VOQLen(in, out int) int {
	if q := s.queue(in, out); q != nil {
		return int(q.size)
	}
	return 0
}

// HOLTime returns the time stamp of VOQ(in,out)'s HOL cell, or
// EmptyHOL (math.MaxInt64, greater than any real arrival slot) when
// the queue is empty. Arbiters and inspectors read the queue heads
// exclusively through this accessor and HOLDataRef.
func (s *Switch) HOLTime(in, out int) int64 {
	if q := s.queue(in, out); q != nil {
		return s.front(q).ts
	}
	return EmptyHOL
}

// HOLDataRef returns the data-slab index referenced by the HOL address
// cell of VOQ(in,out), or -1 when the queue is empty. Two HOL cells
// reference the same stored payload exactly when their refs are equal
// — the observable form of ModeShared's data-cell sharing.
func (s *Switch) HOLDataRef(in, out int) int32 {
	if q := s.queue(in, out); q != nil {
		return s.front(q).data
	}
	return -1
}

// DataFanout returns the live fanout counter of the data-slab entry
// ref (as returned by HOLDataRef): the number of copies still owed.
func (s *Switch) DataFanout(ref int32) int { return int(s.arena.dFan[ref]) }

// OccInWords returns input in's VOQ-occupancy bitmap over outputs: bit
// out&63 of word out>>6 is set exactly when VOQ(in,out) is non-empty.
// The slice aliases switch state — read-only, valid until the next
// Arrive or Step.
func (s *Switch) OccInWords(in int) []uint64 {
	return s.occIn[in*s.words : (in+1)*s.words : (in+1)*s.words]
}

// OccOutWords returns output out's occupancy bitmap over inputs — the
// transpose of OccInWords, for grant-side scans that visit only inputs
// holding a cell for the output. Read-only, valid until the next
// Arrive or Step.
func (s *Switch) OccOutWords(out int) []uint64 {
	return s.occOut[out*s.words : (out+1)*s.words : (out+1)*s.words]
}

// Step runs one time slot after arrivals have been delivered with
// Arrive: arbitration, data transfer and post-transmission processing.
// Every transferred copy is reported through deliver.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	anyQueued := s.totalAddr > 0

	s.match.Clear()
	if anyQueued {
		s.arbiter.Match(s, slot, s.rnd, s.match)
		s.activeSlots++
		s.totalRounds += int64(s.match.Rounds)
		if s.obs != nil {
			s.cActive.Inc()
			s.cRounds.Add(int64(s.match.Rounds))
		}
	}
	s.lastRounds = s.match.Rounds

	// Set the crosspoints: one output bitmap per input. OutIn holds one
	// input per output, so no output is ever driven twice. An input's
	// first grant is one cell sent, a repeat grant makes the slot a
	// multicast one.
	w := s.words
	multicast := false
	for out, in := range s.match.OutIn {
		if in == None {
			continue
		}
		if in < 0 || in >= s.n {
			panic(fmt.Sprintf("core: arbiter granted invalid input %d", in))
		}
		if ibit := uint64(1) << uint(in&63); s.usedW[in>>6]&ibit == 0 {
			s.usedW[in>>6] |= ibit
			s.cells++
		} else {
			multicast = true
		}
		s.grantW[in*w+out>>6] |= 1 << uint(out&63)
		s.copies++
	}
	s.slots++
	if multicast {
		s.multicastSlots++
	}

	// Data transmission and post-transmission processing (Table 2), in
	// ascending (input, output) order — the delivery order the golden
	// streams pin — clearing each bitmap word as it is consumed.
	a := &s.arena
	for uw, ins := range s.usedW {
		s.usedW[uw] = 0
		for ; ins != 0; ins &= ins - 1 {
			in := uw<<6 + bits.TrailingZeros64(ins)
			port := &s.ports[in]
			dataRef := int32(-1)
			row := s.grantW[in*w : in*w+w]
			for gw, outs := range row {
				row[gw] = 0
				for ; outs != 0; outs &= outs - 1 {
					out := gw<<6 + bits.TrailingZeros64(outs)
					c := s.popCell(in, out)
					switch s.mode {
					case ModeShared:
						// Invariant (Section III.B): every address cell an input
						// sends in one slot must point at the same data cell,
						// because the crossbar can replicate only one cell.
						if dataRef < 0 {
							dataRef = c.data
						} else if dataRef != c.data {
							panic(fmt.Sprintf("core: arbiter %s granted two data cells to input %d in one slot",
								s.arbiter.Name(), in))
						}
					case ModeCopied:
						// Independent unicast copies: at most one grant per input.
						if dataRef >= 0 {
							panic(fmt.Sprintf("core: copied-mode arbiter %s granted input %d twice", s.arbiter.Name(), in))
						}
						dataRef = c.data
					}
					// In ModeShared the data cell is exhausted exactly when the
					// packet's last copy leaves, so Done is Last; in ModeCopied
					// each copy has a private fanout-1 data cell, so Last is
					// per-cell and the owner entry says when the packet is done.
					a.dFan[c.data]--
					last := a.dFan[c.data] == 0
					pkt := a.dPkt[c.data]
					done := last && (s.mode == ModeShared || a.departCopy(a.dOwn[c.data]))
					if last {
						port.dataCells--
						s.totalData--
					}
					deliver(cell.Delivery{ID: pkt.ID, In: in, Out: out, Slot: slot, Arrival: pkt.Arrival,
						Last: last, Done: done, Fanout: a.dFanout[c.data]})
					if s.obs != nil {
						s.observeDeparture(slot, in, out, c.ts, pkt.ID, last)
					}
					// The delivery is out the door; the data slab entry is
					// recycled on its last copy (in ModeShared its siblings in
					// this very loop still reference it until then), and the
					// packet itself is handed back for reuse on its Done copy,
					// when no buffered copy references it.
					if last {
						a.freeData(c.data)
					}
					if done && s.release != nil {
						s.release(pkt)
					}
				}
			}
			// Fanout splitting (Section III): the packet's data cell still
			// has unserved destinations after this slot's copies left, so
			// its residue stays queued and competes again — an event only
			// contention can cause, hence worth tracing.
			if s.obs != nil && s.mode == ModeShared && dataRef >= 0 && a.dFan[dataRef] > 0 {
				if s.obs.TraceOn() {
					pkt := a.dPkt[dataRef]
					s.obs.Trace.Emit(obs.Event{
						Slot: slot, Type: obs.EvFanoutSplit, In: int32(in), Out: -1, Round: -1,
						Aux: int32(a.dFan[dataRef]), TS: pkt.Arrival, Packet: int64(pkt.ID),
					})
				}
				s.cSplits.Inc()
			}
		}
	}
}

// observeDeparture records one delivered copy; only called with an
// observer attached. ts and id identify the just-popped address cell's
// stamp and packet.
func (s *Switch) observeDeparture(slot int64, in, out int, ts int64, id cell.PacketID, last bool) {
	if s.obs.TraceOn() {
		aux := int32(0)
		if last {
			aux = 1
		}
		s.obs.Trace.Emit(obs.Event{
			Slot: slot, Type: obs.EvDeparture, In: int32(in), Out: int32(out),
			Round: -1, Aux: aux, TS: ts, Packet: int64(id),
		})
	}
	s.cDepartures.Inc()
	if last {
		s.cCompleted.Inc()
	}
}

// LastRounds returns the number of arbitration rounds of the most
// recent slot (0 for an idle slot).
func (s *Switch) LastRounds() int { return s.lastRounds }

// MeanRounds returns the average arbitration rounds per active slot
// (a slot counts as active when any cell was queued), the quantity
// plotted in Figure 5.
func (s *Switch) MeanRounds() float64 {
	if s.activeSlots == 0 {
		return 0
	}
	return float64(s.totalRounds) / float64(s.activeSlots)
}

// QueueSizes fills dst (which must have length N) with the paper's
// per-input queue-size metric: the number of data cells resident in
// each input port's buffer.
func (s *Switch) QueueSizes(dst []int) []int {
	for i := range s.ports {
		dst[i] = s.ports[i].dataCells
	}
	return dst
}

// BufferedCells returns the total number of data cells buffered across
// all input ports; the engine uses it for instability detection.
func (s *Switch) BufferedCells() int64 { return s.totalData }

// InputBacklog returns the number of data cells buffered at one input
// port — QueueSizes for a single port, without the slice walk. The
// multi-stage fabric polls it per link head when deciding whether a
// buffered copy may be admitted into the downstream switch.
func (s *Switch) InputBacklog(in int) int { return s.ports[in].dataCells }

// BufferedAddressCells returns the total address cells across all
// VOQs, the additional (small) space cost the queue structure pays for
// multicast support (Section IV.B).
func (s *Switch) BufferedAddressCells() int64 { return s.totalAddr }

// SetReleaseHook registers fn to receive each packet as soon as the
// switch drops its last reference to it, which is always from Step,
// never from Arrive: after the delivery of the packet's final buffered
// copy. In ModeShared that is the moment its one data-slab entry is
// freed; in ModeCopied, where every copy has a private slab entry, it
// is when the owner count of the packet's copies still buffered
// reaches zero. The switch never touches the packet (or its destination
// set) again, so the receiver may recycle it — the engine pools packets
// this way to keep the steady-state slot loop allocation-free.
// Wrappers that retain packets beyond delivery (the invariant checker
// keeps them for conservation accounting) deliberately do not forward
// this method, which disables recycling under them.
func (s *Switch) SetReleaseHook(fn func(*cell.Packet)) { s.release = fn }

// BufferedBytes returns the total buffer memory in use across the
// input ports under Section IV.B's accounting: one PayloadSize-byte
// block per live data cell plus AddressCellSize bytes per address
// cell. In ModeShared a fanout-k packet costs PayloadSize +
// k*AddressCellSize; in ModeCopied it costs k*(PayloadSize +
// AddressCellSize) — the space comparison behind the paper's queue
// structure.
func (s *Switch) BufferedBytes() int64 {
	return s.BufferedCells()*cell.PayloadSize + s.BufferedAddressCells()*cell.AddressCellSize
}
