// Package inq is the input-queue store of the multicast baselines: one
// FIFO of whole packets per input, whose head keeps a residual fanout
// until every copy has left. TATRA and WBA queue every packet in it;
// eSLIP queues its multicast packets in it, beside its unicast VOQs.
// The store owns the queues, their occupancy bitmap, pooled entries,
// the release of served packets and the per-input snapshot codec; each
// switch keeps only its scheduling policy.
package inq

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/fifoq"
	"voqsim/internal/snap"
)

// Entry is a queued packet with its not-yet-served destinations.
// Schedulers shrink Remaining in place as copies leave; the packet's
// own destination set is never written.
type Entry struct {
	P         *cell.Packet
	Remaining *destset.Set
}

// Serve removes out from the entry's remaining destinations and
// returns the delivery of that copy in slot. Last and Done both mark
// the copy after which no destination is owed: the entry is the
// packet's one data cell.
func (e *Entry) Serve(out int, slot int64) cell.Delivery {
	e.Remaining.Remove(out)
	done := e.Remaining.Empty()
	return cell.Delivery{ID: e.P.ID, In: e.P.Input, Out: out, Slot: slot, Arrival: e.P.Arrival,
		Last: done, Done: done, Fanout: int32(e.P.Fanout())}
}

// entrySlab is how many entries an empty pool is refilled with.
const entrySlab = 64

// Store holds one FIFO of entries per input. Entries are pooled: one
// leaves its queue with an empty Remaining set and serves a later
// arrival.
type Store struct {
	n      int
	queues []fifoq.Queue[*Entry]
	occ    *destset.Set // inputs with a non-empty queue

	free    []*Entry           // served entries, reused by push
	release func(*cell.Packet) // SetReleaseHook; nil leaves packets to the GC
}

// New returns an empty store for an n-input switch.
func New(n int) *Store {
	return &Store{n: n, queues: make([]fifoq.Queue[*Entry], n), occ: destset.New(n)}
}

// Push appends p to the queue of its input, every destination still
// owed. It panics on an invalid input or an empty destination set.
func (s *Store) Push(p *cell.Packet) {
	if p.Input < 0 || p.Input >= s.n {
		panic(fmt.Sprintf("inq: arrival at invalid input %d", p.Input))
	}
	if p.Dests.Empty() {
		panic("inq: arrival with empty destination set")
	}
	s.push(p).Remaining.CopyFrom(p.Dests)
}

// push queues a pooled entry for p and returns it.
func (s *Store) push(p *cell.Packet) *Entry {
	if len(s.free) == 0 {
		// Refill a slab at a time: an unstable point backs up to 1000*N
		// entries, and one allocation each would dominate its run.
		entries := make([]Entry, entrySlab)
		sets := destset.NewSlab(s.n, entrySlab)
		for i := range entries {
			entries[i].Remaining = &sets[i]
			s.free = append(s.free, &entries[i])
		}
	}
	k := len(s.free) - 1
	e := s.free[k]
	s.free = s.free[:k]
	e.P = p
	if s.queues[p.Input].Empty() {
		s.occ.Add(p.Input)
	}
	s.queues[p.Input].Push(e)
	return e
}

// Len returns how many packets input in queues.
func (s *Store) Len(in int) int { return s.queues[in].Len() }

// Front returns the head-of-line entry of input in, whose queue must
// not be empty.
func (s *Store) Front(in int) *Entry { return s.queues[in].Front() }

// Occupied returns the inputs with a queued packet. Do not mutate it.
func (s *Store) Occupied() *destset.Set { return s.occ }

// Advance pops the head of input in if every copy of it has left, hands
// its packet to the release hook and reports whether it did. Call it
// from Step after the last read of the packet, trace events included.
func (s *Store) Advance(in int) bool {
	q := &s.queues[in]
	if q.Empty() || !q.Front().Remaining.Empty() {
		return false
	}
	e := q.Pop()
	if q.Empty() {
		s.occ.Remove(in)
	}
	if s.release != nil {
		s.release(e.P)
	}
	e.P = nil
	s.free = append(s.free, e)
	return true
}

// SetReleaseHook registers fn to receive each packet when Advance pops
// it, every copy delivered — from Step, never from Arrive, whose
// callers still read the packet. The store holds no reference to it
// afterwards.
func (s *Store) SetReleaseHook(fn func(*cell.Packet)) { s.release = fn }

// QueueSizes fills dst with the per-input packet counts.
func (s *Store) QueueSizes(dst []int) []int {
	for i := range s.queues {
		dst[i] = s.queues[i].Len()
	}
	return dst
}

// InputBacklog returns the packets queued at input in.
func (s *Store) InputBacklog(in int) int { return s.queues[in].Len() }

// BufferedCells returns the total queued packets across inputs.
func (s *Store) BufferedCells() int64 {
	var total int64
	for i := range s.queues {
		total += int64(s.queues[i].Len())
	}
	return total
}

// BufferedBytes returns the buffer memory of a single-input-queued
// switch: one payload block per queued packet (the structure stores no
// address cells; the residual fanout bitmap is counted like one address
// cell per packet).
func (s *Store) BufferedBytes() int64 {
	return s.BufferedCells() * (cell.PayloadSize + cell.AddressCellSize)
}

// ForEachCopy calls fn for every copy still owed, input by input,
// front to back, each packet's outputs in ascending order. External
// inspectors (the invariant checker's shadow-model priming, the
// fabric's conservation pass) use it to read the buffer content.
func (s *Store) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	for in := range s.queues {
		q := &s.queues[in]
		for i := 0; i < q.Len(); i++ {
			e := q.At(i)
			e.Remaining.ForEach(func(out int) { fn(in, out, e.P.ID, e.P.Arrival) })
		}
	}
}

// SaveInput appends the queue of input in: its length, then per entry
// the packet ID, arrival slot, destinations and remaining destinations.
func (s *Store) SaveInput(w *snap.Writer, in int) {
	q := &s.queues[in]
	w.Count(q.Len())
	for i := 0; i < q.Len(); i++ {
		e := q.At(i)
		w.I64(int64(e.P.ID))
		w.I64(e.P.Arrival)
		snap.WriteDests(w, e.P.Dests)
		snap.WriteDests(w, e.Remaining)
	}
}

// LoadInput restores the queue of input in, written by SaveInput, into
// a store where it is empty. It refuses a queue no run could have
// built: a packet with fewer than minFanout destinations, or with
// remaining destinations that are none or not among its own, an
// arrival outside [0, resume slot), or arrivals that do not strictly
// increase along the queue — one packet arrives per input per slot.
func (s *Store) LoadInput(r *snap.Reader, in, minFanout int) error {
	prev := int64(-1)
	// Entries cost at least id(8)+arrival(8)+2 dest sets (5 each).
	for i, k := 0, r.Count(26); i < k; i++ {
		id := cell.PacketID(r.I64())
		arrival := r.I64()
		dests := snap.ReadDests(r, s.n)
		remaining := snap.ReadDests(r, s.n)
		if r.Err() != nil {
			return r.Err()
		}
		switch {
		case dests == nil || dests.Count() < minFanout || remaining == nil || remaining.Empty():
			r.Failf("entry %d at input %d has invalid destination sets", id, in)
		case arrival < 0 || arrival >= r.NextSlot():
			r.Failf("entry %d at input %d arrival %d outside [0,%d)", id, in, arrival, r.NextSlot())
		case !within(remaining, dests):
			r.Failf("entry %d at input %d has remaining outside its destinations", id, in)
		case arrival <= prev:
			r.Failf("input %d queues slot %d behind slot %d", in, arrival, prev)
		}
		if r.Err() != nil {
			return r.Err()
		}
		prev = arrival
		p := &cell.Packet{ID: id, Input: in, Arrival: arrival, Dests: dests}
		s.push(p).Remaining.CopyFrom(remaining)
	}
	return r.Err()
}

// within reports whether every member of a is a member of b.
func within(a, b *destset.Set) bool {
	for i, w := range a.Words() {
		if w&^b.Words()[i] != 0 {
			return false
		}
	}
	return true
}
