package oq

import (
	"voqsim/internal/cell"
	"voqsim/internal/idwin"
	"voqsim/internal/snap"
)

// Checkpoint hooks. Serialized state: every output FIFO front to back,
// one (packet ID, input, arrival) triple per copy, then the per-packet
// counters in ascending ID order. Packets awaiting release are not
// state: the hook hands them back at the end of the Step after their
// arrival, so none is held between slots.

// ForEachCopy calls fn for every queued copy, output by output, front
// to back.
func (s *Switch) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	for out := range s.queues {
		q := &s.queues[out]
		for i := 0; i < q.Len(); i++ {
			c := q.At(i)
			fn(c.in, out, c.id, c.arrival)
		}
	}
}

// SaveState appends the switch's complete evolving state as one "oq"
// section.
func (s *Switch) SaveState(w *snap.Writer) {
	w.Begin("oq")
	w.Int(s.n)
	for out := range s.queues {
		q := &s.queues[out]
		w.Count(q.Len())
		for i := 0; i < q.Len(); i++ {
			c := q.At(i)
			w.I64(int64(c.id))
			w.Int(c.in)
			w.I64(c.arrival)
		}
	}
	w.Count(s.pkts.Len())
	s.pkts.Ascending(func(id cell.PacketID, o *pktSent) {
		w.I64(int64(id))
		w.Int(int(o.fanout))
		w.Int(int(o.sent))
	})
	w.End()
}

// LoadState restores state written by SaveState into a fresh switch
// of the same size. It refuses a copy from an input outside the switch
// or with an arrival outside [0, resume slot), and a packet whose
// counter is impossible or owes fewer copies than it queues.
func (s *Switch) LoadState(r *snap.Reader) error {
	if err := r.Section("oq"); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != s.n {
		r.Failf("snapshot is for a %d-port switch, this one has %d", n, s.n)
	}
	queued := make(map[cell.PacketID]int)
	for out := range s.queues {
		for i, k := 0, r.Count(24); i < k; i++ {
			id := cell.PacketID(r.I64())
			in := r.Int()
			arrival := r.I64()
			if r.Err() != nil {
				return r.Err()
			}
			switch {
			case in < 0 || in >= s.n:
				r.Failf("copy %d at output %d from input %d outside [0,%d)", id, out, in, s.n)
			case arrival < 0 || arrival >= r.NextSlot():
				r.Failf("copy %d at output %d arrival %d outside [0,%d)", id, out, arrival, r.NextSlot())
			}
			if r.Err() != nil {
				return r.Err()
			}
			s.queues[out].Push(queuedCopy{id: id, in: in, arrival: arrival})
			queued[id]++
		}
	}
	var span idwin.Span
	for i, k := 0, r.Count(24); i < k; i++ {
		id := cell.PacketID(r.I64())
		fanout, sent := r.Int(), r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if fanout < 1 || fanout > s.n || sent < 0 || sent >= fanout || sent+queued[id] > fanout {
			r.Failf("packet %d has fanout %d, %d copies sent and %d queued", id, fanout, sent, queued[id])
			return r.Err()
		}
		if !span.Admit(id) {
			r.Failf("packet %d widens the live ID span past %d", id, idwin.MaxSpan)
			return r.Err()
		}
		o, dup := s.pkts.Ensure(id)
		if dup {
			r.Failf("packet %d counted twice", id)
			return r.Err()
		}
		*o = pktSent{fanout: int32(fanout), sent: int32(sent)}
		delete(queued, id)
	}
	for id := range queued {
		r.Failf("queued packet %d has no counter", id)
		return r.Err()
	}
	return r.EndSection()
}
