package eslip

import (
	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
)

// Checkpoint hooks. Serialized state: the unicast VOQs, the multicast
// queues through the store's per-input codec (each entry carries its
// residual destination set: fanout splitting mutates it in place, so a
// packet's remaining set differs from its original destinations
// mid-service), the three scheduler pointers and the rounds
// accounting. The occupancy bitsets, payload counts and the pending
// copy count are derived caches, rebuilt while loading; the scratch
// sets and observability handles are per-slot or reattached.

// ForEachCopy calls fn for every copy still owed: the multicast
// entries of every input, then each unicast VOQ front to back.
// External inspectors (the invariant checker's shadow-model priming,
// the fabric's conservation pass) use it to read the buffer content.
func (s *Switch) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	s.mc.ForEachCopy(fn)
	for in := 0; in < s.n; in++ {
		for out := 0; out < s.n; out++ {
			uq := &s.uniVOQ[in][out]
			for i := 0; i < uq.Len(); i++ {
				p := uq.At(i)
				fn(in, out, p.ID, p.Arrival)
			}
		}
	}
}

// SaveState appends the switch's complete evolving state as one
// "eslip" section.
func (s *Switch) SaveState(w *snap.Writer) {
	w.Begin("eslip")
	w.Int(s.n)
	w.Ints(s.grantPtr)
	w.Ints(s.acceptPtr)
	w.Int(s.mcPtr)
	w.Int(s.lastRounds)
	w.I64(s.totalRounds)
	w.I64(s.activeSlots)
	for in := 0; in < s.n; in++ {
		s.mc.SaveInput(w, in)
		for out := 0; out < s.n; out++ {
			uq := &s.uniVOQ[in][out]
			w.Count(uq.Len())
			for i := 0; i < uq.Len(); i++ {
				p := uq.At(i)
				w.I64(int64(p.ID))
				w.I64(p.Arrival)
			}
		}
	}
	w.End()
}

// LoadState restores state written by SaveState into a fresh switch
// of the same size, rebuilding the occupancy bitsets and payload
// counts from the queues as they fill, and the pending copy count from
// the restored queues once they are full.
func (s *Switch) LoadState(r *snap.Reader) error {
	if err := r.Section("eslip"); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != s.n {
		r.Failf("snapshot is for a %d-port switch, this one has %d", n, s.n)
	}
	grant := r.Ints()
	accept := r.Ints()
	mcPtr := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if len(grant) != s.n || len(accept) != s.n {
		r.Failf("pointer vectors sized %d/%d for %d ports", len(grant), len(accept), s.n)
		return r.Err()
	}
	for i := 0; i < s.n; i++ {
		if grant[i] < 0 || grant[i] >= s.n || accept[i] < 0 || accept[i] >= s.n {
			r.Failf("pointer (%d,%d) at port %d outside [0,%d)", grant[i], accept[i], i, s.n)
			return r.Err()
		}
	}
	if mcPtr < 0 || mcPtr >= s.n {
		r.Failf("multicast pointer %d outside [0,%d)", mcPtr, s.n)
		return r.Err()
	}
	copy(s.grantPtr, grant)
	copy(s.acceptPtr, accept)
	s.mcPtr = mcPtr
	s.lastRounds = r.Int()
	s.totalRounds = r.I64()
	s.activeSlots = r.I64()
	for in := 0; in < s.n; in++ {
		// A multicast entry has at least two destinations: Arrive
		// queues a single one as a unicast cell.
		if err := s.mc.LoadInput(r, in, 2); err != nil {
			return err
		}
		s.payloads[in] += s.mc.Len(in)
		for out := 0; out < s.n; out++ {
			uqLen := r.Count(16)
			for i := 0; i < uqLen; i++ {
				id := cell.PacketID(r.I64())
				arrival := r.I64()
				if r.Err() != nil {
					return r.Err()
				}
				if arrival < 0 || arrival >= r.NextSlot() {
					r.Failf("unicast cell %d at VOQ(%d,%d) arrival %d outside [0,%d)", id, in, out, arrival, r.NextSlot())
					return r.Err()
				}
				p := &cell.Packet{ID: id, Input: in, Arrival: arrival, Dests: destset.FromMembers(s.n, out)}
				if s.uniVOQ[in][out].Empty() {
					s.uniOcc[out].Add(in)
				}
				s.uniVOQ[in][out].Push(p)
				s.payloads[in]++
			}
		}
	}
	s.ForEachCopy(func(int, int, cell.PacketID, int64) { s.pending++ })
	return r.EndSection()
}
