// Package wba implements a Weight-Based Arbitration multicast
// scheduler in the style of WBA (Prabhakar, McKeown and Ahuja, IEEE
// JSAC 1997) on a single-input-queued switch. It is an extension
// baseline beyond the reproduced paper's comparison set: a second
// multicast scheduler on the same architecture as TATRA, useful for
// separating "what the VOQ structure buys" from "what the scheduling
// policy buys".
//
// Every slot, each input computes a weight for its head-of-line packet
// — its age in slots, so older packets weigh more, mirroring WBA's
// fairness lever — and submits a request carrying that weight to every
// output in the packet's remaining fanout. Each output independently
// grants the heaviest request, breaking ties uniformly at random.
// All grants an input collects are for its single HOL packet, so they
// can all be served in one slot (fanout splitting: the residue stays
// at the head and competes again, now older and heavier).
package wba

import (
	"math/bits"

	"voqsim/internal/cell"
	"voqsim/internal/inq"
	"voqsim/internal/obs"
	"voqsim/internal/xrand"
)

// Switch is a single-input-queued switch scheduled by weight-based
// arbitration. It satisfies the simulation engine's Switch interface.
// Its input FIFOs are an inq.Store, which also supplies QueueSizes,
// InputBacklog, BufferedCells, BufferedBytes, ForEachCopy and the
// release hook.
type Switch struct {
	*inq.Store
	n   int
	rnd *xrand.Rand

	// heads caches the HOL entries of the occupied inputs for the
	// duration of one Step: the grant scan then touches only live
	// inputs via word iteration instead of probing all N queues per
	// output.
	heads []*inq.Entry

	// Observability (DESIGN.md §8); obs is nil in ordinary runs and
	// the metric handles are nil-safe no-ops.
	obs         *obs.Observer
	cArrivals   *obs.Counter
	cEnqueues   *obs.Counter
	cDepartures *obs.Counter
	cCompleted  *obs.Counter
	cSplits     *obs.Counter
	cRequests   *obs.Counter
	cGrants     *obs.Counter
	occHWM      []*obs.Gauge
	served      []int // copies delivered per input this slot (observation only)
}

// New returns an n x n WBA switch drawing tie-break randomness from
// root.
func New(n int, root *xrand.Rand) *Switch {
	if n <= 0 {
		panic("wba: non-positive switch size")
	}
	return &Switch{
		Store: inq.New(n),
		n:     n,
		rnd:   root.Split("wba", 0),
		heads: make([]*inq.Entry, n),
	}
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.n }

// Name identifies the algorithm in reports.
func (s *Switch) Name() string { return "wba" }

// SetObserver attaches (or detaches, with nil) the observability
// layer; call it before the run starts.
func (s *Switch) SetObserver(o *obs.Observer) {
	s.obs = o
	s.cArrivals = o.Counter(obs.MetricArrivals)
	s.cEnqueues = o.Counter(obs.MetricEnqueues)
	s.cDepartures = o.Counter(obs.MetricDepartures)
	s.cCompleted = o.Counter(obs.MetricCompleted)
	s.cSplits = o.Counter(obs.MetricSplits)
	s.cRequests = o.Counter(obs.MetricRequests)
	s.cGrants = o.Counter(obs.MetricGrants)
	s.occHWM = nil
	s.served = nil
	if o != nil {
		s.served = make([]int, s.n)
	}
	if o.MetricsOn() {
		s.occHWM = make([]*obs.Gauge, s.n)
		for i := range s.occHWM {
			s.occHWM[i] = o.Gauge(obs.OccHWM(i))
		}
	}
}

// Arrive appends a packet to its input's FIFO queue.
func (s *Switch) Arrive(p *cell.Packet) {
	s.Push(p)
	if s.obs != nil {
		if s.obs.TraceOn() {
			s.obs.Trace.Emit(obs.Event{
				Slot: p.Arrival, Type: obs.EvArrival, In: int32(p.Input), Out: -1,
				Round: -1, Aux: int32(p.Dests.Count()), TS: p.Arrival, Packet: int64(p.ID),
			})
			// One entry in the input's single FIFO, whatever the fanout.
			s.obs.Trace.Emit(obs.Event{
				Slot: p.Arrival, Type: obs.EvEnqueue, In: int32(p.Input), Out: -1,
				Round: -1, TS: p.Arrival, Packet: int64(p.ID),
			})
		}
		s.cArrivals.Inc()
		s.cEnqueues.Inc()
		if s.occHWM != nil {
			s.occHWM[p.Input].Max(int64(s.Len(p.Input)))
		}
	}
}

// Step runs one time slot of request/grant arbitration and transfer.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	// Cache the HOL entry of every live input once per slot; grants
	// mutate remaining in place, never the head pointer.
	occWords := s.Occupied().Words()
	s.Occupied().ForEach(func(in int) { s.heads[in] = s.Front(in) })
	if s.obs != nil {
		s.observeRequests(slot)
	}

	for out := 0; out < s.n; out++ {
		// Grant: heaviest (oldest) HOL request for this output wins;
		// ties are broken uniformly (reservoir sampling). Only live
		// inputs are scanned, in ascending order, so the RNG draw
		// sequence matches the plain all-inputs loop.
		best := int64(-1)
		chosen := -1
		ties := 0
		for wi, wv := range occWords {
			base := wi << 6
			for wv != 0 {
				in := base + bits.TrailingZeros64(wv)
				wv &= wv - 1
				e := s.heads[in]
				if !e.Remaining.Contains(out) {
					continue
				}
				age := slot - e.P.Arrival
				switch {
				case age > best:
					best, chosen, ties = age, in, 1
				case age == best:
					ties++
					if s.rnd.Intn(ties) == 0 {
						chosen = in
					}
				}
			}
		}
		if chosen < 0 {
			continue
		}
		e := s.heads[chosen]
		d := e.Serve(out, slot)
		deliver(d)
		if s.obs != nil {
			s.served[chosen]++
			if s.obs.TraceOn() {
				// WBA's single arbitration pass is round 0; TS records
				// the winning packet's arrival (its age is its weight).
				s.obs.Trace.Emit(obs.Event{
					Slot: slot, Type: obs.EvGrant, In: int32(chosen), Out: int32(out),
					Round: 0, TS: e.P.Arrival, Packet: int64(e.P.ID),
				})
				aux := int32(0)
				if d.Last {
					aux = 1
				}
				s.obs.Trace.Emit(obs.Event{
					Slot: slot, Type: obs.EvDeparture, In: int32(chosen), Out: int32(out),
					Round: -1, Aux: aux, TS: e.P.Arrival, Packet: int64(e.P.ID),
				})
			}
			s.cGrants.Inc()
			s.cDepartures.Inc()
			if d.Last {
				s.cCompleted.Inc()
			}
		}
	}

	// Advance and release fully served head-of-line packets, after the
	// last trace event that reads them.
	for in := 0; in < s.n; in++ {
		if s.obs != nil && s.served[in] > 0 {
			if e := s.heads[in]; !e.Remaining.Empty() {
				// Partially served: the residue stays at HOL (fanout
				// splitting) and competes again next slot, older.
				if s.obs.TraceOn() {
					s.obs.Trace.Emit(obs.Event{
						Slot: slot, Type: obs.EvFanoutSplit, In: int32(in), Out: -1, Round: -1,
						Aux: int32(e.Remaining.Count()), TS: e.P.Arrival, Packet: int64(e.P.ID),
					})
				}
				s.cSplits.Inc()
			}
			s.served[in] = 0
		}
		s.heads[in] = nil
		s.Advance(in)
	}
}

// observeRequests emits this slot's implicit WBA requests — every live
// input's HOL packet requests all of its remaining destinations — and
// counts the pairs. Only called with an observer attached.
func (s *Switch) observeRequests(slot int64) {
	traceOn := s.obs.TraceOn()
	var pairs int64
	s.Occupied().ForEach(func(in int) {
		e := s.heads[in]
		pairs += int64(e.Remaining.Count())
		if traceOn {
			e.Remaining.ForEach(func(out int) {
				s.obs.Trace.Emit(obs.Event{
					Slot: slot, Type: obs.EvRequest, In: int32(in), Out: int32(out),
					Round: 0, TS: e.P.Arrival, Packet: int64(e.P.ID),
				})
			})
		}
	})
	s.cRequests.Add(pairs)
}
