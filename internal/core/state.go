package core

import (
	"voqsim/internal/cell"
	"voqsim/internal/snap"
)

// Checkpoint hooks (DESIGN.md §10). The serialized state is the
// *logical* buffer content: per input, a table of live packets (with
// their data-cell fanout counters) plus, per VOQ, the front-to-back
// sequence of table indices its address cells reference. Encoding
// references instead of cells preserves the one-data-cell-per-packet
// sharing of ModeShared exactly, so a restored fanout-k packet still
// occupies one data cell. The format predates the cell arena and is
// independent of it — snapshots written by the pointer-based switch
// load into the arena-backed one unchanged (the golden-blob compat
// test pins this).
//
// Deliberately not serialized:
//
//   - the arena's slab free lists and capacities — performance
//     caches, regrown on demand;
//   - ModeCopied's owner counts — the number of copies of a packet
//     still queued, which loadPort recounts from the VOQ references;
//   - the occIn/occOut bitmaps and the minHOL/minMask oldest-stamp
//     cache — LoadState rebuilds them coherently by re-pushing every
//     cell through pushCell, and each cell carries its own stamp;
//   - the Matching and scratch slices — per-slot state, rebuilt from
//     scratch at the next Step;
//   - the observer and its cached metric handles — observability must
//     never influence a run, so it is reattached, not restored.

// StatefulArbiter is implemented by arbiters whose private state
// persists across slots (iSLIP's rotating pointers). Arbiters that
// keep only per-slot scratch — FIFOMS, PIM, LQFMS, 2DRR — do not
// implement it and serialize nothing.
type StatefulArbiter interface {
	Arbiter
	SaveArbiterState(w *snap.Writer)
	LoadArbiterState(n int, r *snap.Reader) error
}

// ForEachBuffered calls fn for every buffered address cell, VOQ by
// VOQ, front to back. A fanout-k packet is visited once per output
// still owed a copy. External inspectors (the invariant checker's
// shadow-model priming) use it to read the buffer content without
// reaching into the queues.
func (s *Switch) ForEachBuffered(fn func(in, out int, p *cell.Packet)) {
	a := &s.arena
	for in := 0; in < s.n; in++ {
		for out := 0; out < s.n; out++ {
			a.each(in, out, func(c acell) { fn(in, out, a.dPkt[c.data]) })
		}
	}
}

// ForEachCopy calls fn for every buffered address cell, in
// ForEachBuffered's order.
func (s *Switch) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	s.ForEachBuffered(func(in, out int, p *cell.Packet) { fn(in, out, p.ID, p.Arrival) })
}

// SaveState appends the switch's complete evolving state as one
// "core" section.
func (s *Switch) SaveState(w *snap.Writer) {
	w.Begin("core")
	w.Int(s.n)
	w.U8(uint8(s.mode))
	snap.WriteRand(w, s.rnd)
	w.Int(s.lastRounds)
	w.I64(s.totalRounds)
	w.I64(s.activeSlots)
	w.I64(s.slots)
	w.I64(s.copies)
	w.I64(s.cells)
	w.I64(s.multicastSlots)
	for in := 0; in < s.n; in++ {
		s.savePort(w, in)
	}
	if sa, ok := s.arbiter.(StatefulArbiter); ok {
		w.Bool(true)
		sa.SaveArbiterState(w)
	} else {
		w.Bool(false)
	}
	w.End()
}

// savePort appends one input port: its arrival guard, the table of
// live packets, and each VOQ as indices into that table.
func (s *Switch) savePort(w *snap.Writer, in int) {
	a := &s.arena
	port := &s.ports[in]
	w.I64(port.lastArrival)

	// The table deduplicates by *cell.Packet: in ModeShared the
	// packet's single slab entry carries the live fanout counter; in
	// ModeCopied every queued copy has a private fanout-1 entry, but
	// the copies still share one Packet, which is what makes the table
	// well defined in both modes.
	index := make(map[*cell.Packet]int)
	var packets []*cell.Packet
	var counters []int
	for out := 0; out < s.n; out++ {
		a.each(in, out, func(c acell) {
			p := a.dPkt[c.data]
			if _, ok := index[p]; !ok {
				index[p] = len(packets)
				packets = append(packets, p)
				counters = append(counters, int(a.dFan[c.data]))
			}
		})
	}
	w.Count(len(packets))
	for i, p := range packets {
		w.I64(int64(p.ID))
		w.I64(p.Arrival)
		w.Int(counters[i])
		snap.WriteDests(w, p.Dests)
	}
	for out := 0; out < s.n; out++ {
		w.Count(s.VOQLen(in, out))
		a.each(in, out, func(c acell) { w.Int(index[a.dPkt[c.data]]) })
	}
}

// LoadState restores state written by SaveState into a freshly built
// switch of the same size, arbiter and mode. The VOQs are rebuilt by
// re-pushing every address cell through pushCell, which regenerates
// the occupancy bitmaps and the oldest-stamp cache as a side effect —
// they cannot drift from the queues they describe.
func (s *Switch) LoadState(r *snap.Reader) error {
	if err := r.Section("core"); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != s.n {
		r.Failf("snapshot is for a %d-port switch, this one has %d", n, s.n)
	}
	if m := PreprocessMode(r.U8()); r.Err() == nil && m != s.mode {
		r.Failf("snapshot preprocess mode %v, arbiter uses %v", m, s.mode)
	}
	snap.ReadRand(r, s.rnd)
	s.lastRounds = r.Int()
	s.totalRounds = r.I64()
	s.activeSlots = r.I64()
	s.slots, s.copies, s.cells, s.multicastSlots = r.I64(), r.I64(), r.I64(), r.I64()
	if r.Err() == nil && min(s.slots, s.copies, s.cells, s.multicastSlots) < 0 {
		r.Failf("negative transfer counter")
	}
	if err := r.Err(); err != nil {
		return err
	}
	for in := 0; in < s.n; in++ {
		if err := s.loadPort(r, in); err != nil {
			return err
		}
	}
	hasArb := r.Bool()
	sa, stateful := s.arbiter.(StatefulArbiter)
	if r.Err() == nil && hasArb != stateful {
		r.Failf("snapshot arbiter statefulness %v, arbiter %s statefulness %v", hasArb, s.arbiter.Name(), stateful)
	}
	if r.Err() == nil && hasArb {
		if err := sa.LoadArbiterState(s.n, r); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return r.EndSection()
}

// loadPort restores one input port written by savePort.
func (s *Switch) loadPort(r *snap.Reader, in int) error {
	a := &s.arena
	port := &s.ports[in]
	port.lastArrival = r.I64()
	if r.Err() == nil && (port.lastArrival < -1 || port.lastArrival >= r.NextSlot()) {
		// The guard in Arrive panics on out-of-order arrivals, so a
		// last-arrival stamp at or past the resume slot must be
		// rejected here, where it is an input error, not a bug.
		r.Failf("input %d last arrival %d outside [-1,%d)", in, port.lastArrival, r.NextSlot())
		return r.Err()
	}

	// Each table entry costs at least id(8)+arrival(8)+counter(8)+
	// dests presence(1)+count(4) = 29 bytes.
	nPkts := r.Count(29)
	packets := make([]*cell.Packet, nPkts)
	dataIdx := make([]int32, nPkts) // ModeShared: the data entry; ModeCopied: the owner entry
	refs := make([]int, nPkts)
	stamps := make(map[int64]bool) // ModeShared: arrival slots seen in the table
	for i := 0; i < nPkts; i++ {
		id := cell.PacketID(r.I64())
		arrival := r.I64()
		counter := r.Int()
		dests := snap.ReadDests(r, s.n)
		if r.Err() != nil {
			return r.Err()
		}
		if dests == nil || dests.Empty() {
			r.Failf("buffered packet %d has no destinations", id)
			return r.Err()
		}
		if counter < 1 || counter > dests.Count() {
			r.Failf("buffered packet %d fanout counter %d outside [1,%d]", id, counter, dests.Count())
			return r.Err()
		}
		if s.mode == ModeCopied && counter != 1 {
			// savePort writes a copy's private fanout-1 entry, nothing else.
			r.Failf("buffered packet %d fanout counter %d in copied mode, want 1", id, counter)
			return r.Err()
		}
		if arrival < 0 || arrival >= r.NextSlot() {
			r.Failf("buffered packet %d arrival %d outside [0,%d)", id, arrival, r.NextSlot())
			return r.Err()
		}
		packets[i] = &cell.Packet{ID: id, Input: in, Arrival: arrival, Dests: dests}
		if s.mode == ModeShared {
			// Arrive's guard admits one packet per input per slot, each
			// after the last, so a stamp names one packet of the input.
			if arrival > port.lastArrival {
				r.Failf("input %d buffers packet %d of slot %d past its last arrival %d", in, id, arrival, port.lastArrival)
				return r.Err()
			}
			if stamps[arrival] {
				r.Failf("input %d buffers two packets of slot %d", in, arrival)
				return r.Err()
			}
			stamps[arrival] = true
			dataIdx[i] = a.allocData(packets[i], int32(counter))
			port.dataCells++
			s.totalData++
		} else {
			dataIdx[i] = a.allocOwner(0) // counted up per queued copy below
		}
	}
	for out := 0; out < s.n; out++ {
		qLen := r.Count(8)
		prev := int64(-1) // the stamp queued ahead
		for k := 0; k < qLen; k++ {
			idx := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if idx < 0 || idx >= nPkts {
				r.Failf("VOQ(%d,%d) references packet index %d of %d", in, out, idx, nPkts)
				return r.Err()
			}
			p := packets[idx]
			if !p.Dests.Contains(out) {
				r.Failf("VOQ(%d,%d) holds packet %d that is not addressed to %d", in, out, p.ID, out)
				return r.Err()
			}
			// A VOQ is a FIFO of arrivals: stamps never decrease along it,
			// and in ModeShared, where a stamp names one packet, they
			// strictly increase (popCell relies on it).
			if p.Arrival < prev || s.mode == ModeShared && p.Arrival == prev {
				r.Failf("VOQ(%d,%d) queues slot %d behind slot %d", in, out, p.Arrival, prev)
				return r.Err()
			}
			prev = p.Arrival
			refs[idx]++
			data := dataIdx[idx]
			if s.mode == ModeCopied {
				a.owed[data]++
				data = a.allocCopy(p, data)
				port.dataCells++
				s.totalData++
			}
			s.pushCell(in, out, p.Arrival, data)
		}
	}
	if s.mode == ModeShared {
		// The fanout counter must equal the address cells still queued,
		// or the transfer loop would mis-time the slab entry's release.
		for i := range packets {
			if refs[i] != int(a.dFan[dataIdx[i]]) {
				r.Failf("packet %d has %d queued cells but fanout counter %d", packets[i].ID, refs[i], a.dFan[dataIdx[i]])
				return r.Err()
			}
		}
	} else {
		for i, p := range packets {
			if refs[i] == 0 {
				r.Failf("buffered packet %d has no queued cells", p.ID)
				return r.Err()
			}
		}
	}
	return r.Err()
}
