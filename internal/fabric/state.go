package fabric

import (
	"voqsim/internal/cell"
	"voqsim/internal/idwin"
	"voqsim/internal/snap"
)

// Checkpoint hooks. The fabric writes one "fabric" section — its own
// copy-routing state: the live-packet window, every node's copy
// contexts and local ID counter, every link buffer, and the fabric
// counters — followed by each node's own sections in node order. A
// restored fabric therefore continues bit-identically: the same local
// IDs are issued, the same link heads become admissible on the same
// slots, and the same leaf subsets ride every buffered copy.

// SaveState appends the fabric section and then every node's state.
func (f *Fabric) SaveState(w *snap.Writer) {
	w.Begin("fabric")
	w.Int(f.top.Nodes())
	w.Int(f.top.NumLinks())
	w.Int(f.cfg.LinkCapacity)
	w.Int(f.cfg.MaxInputCells)

	w.I64(f.admitted)
	w.I64(f.admittedCopies)
	w.I64(f.delivered)
	w.I64(f.dropped)
	w.I64s(f.dropsByHop)
	f.hops.SaveState(w)

	w.Count(f.live.Len())
	f.live.Ascending(func(id cell.PacketID, v *liveInfo) {
		w.I64(int64(id))
		w.Int(int(v.input))
		w.Int(int(v.fanout))
		w.I64(v.arrival)
		w.Int(int(v.remain))
		w.Bool(v.tainted)
	})

	for ni := range f.nodes {
		w.I64(f.nextLocal[ni])
		w.Count(f.ctxs[ni].Len())
		f.ctxs[ni].Ascending(func(id cell.PacketID, v *ctxInfo) {
			w.I64(int64(id))
			w.I64(int64(v.fab))
			w.Int(int(v.hops))
			snap.WriteDests(w, f.viewRow(v.leaves))
		})
	}

	for li := range f.links {
		lk := &f.links[li]
		w.Count(lk.size)
		for i := 0; i < lk.size; i++ {
			ent := lk.at(i)
			w.I64(int64(ent.fabID))
			w.Int(int(ent.hops))
			w.I64(ent.enq)
			snap.WriteDests(w, f.viewRow(ent.leaves))
		}
	}
	w.End()

	for _, nd := range f.nodes {
		nd.SaveState(w)
	}
}

// LoadState restores state written by SaveState into a freshly built
// fabric over the same topology and config.
func (f *Fabric) LoadState(r *snap.Reader) error {
	if err := r.Section("fabric"); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != f.top.Nodes() {
		r.Failf("snapshot fabric has %d nodes, this one has %d", n, f.top.Nodes())
	}
	if n := r.Int(); r.Err() == nil && n != f.top.NumLinks() {
		r.Failf("snapshot fabric has %d links, this one has %d", n, f.top.NumLinks())
	}
	if c := r.Int(); r.Err() == nil && c != f.cfg.LinkCapacity {
		r.Failf("snapshot link capacity %d, fabric configured with %d", c, f.cfg.LinkCapacity)
	}
	if c := r.Int(); r.Err() == nil && c != f.cfg.MaxInputCells {
		r.Failf("snapshot admission bound %d, fabric configured with %d", c, f.cfg.MaxInputCells)
	}

	f.admitted = r.I64()
	f.admittedCopies = r.I64()
	f.delivered = r.I64()
	f.dropped = r.I64()
	byHop := r.I64s()
	if r.Err() != nil {
		return r.Err()
	}
	if f.admitted < 0 || f.admittedCopies < f.admitted || f.delivered < 0 || f.dropped < 0 ||
		f.delivered+f.dropped > f.admittedCopies {
		r.Failf("fabric counters impossible: admitted %d/%d copies, delivered %d, dropped %d",
			f.admitted, f.admittedCopies, f.delivered, f.dropped)
		return r.Err()
	}
	if len(byHop) != len(f.dropsByHop) {
		r.Failf("drops-by-hop has %d stages, topology has %d", len(byHop), len(f.dropsByHop))
		return r.Err()
	}
	var byHopSum int64
	for h, c := range byHop {
		if c < 0 {
			r.Failf("drops at hop %d negative: %d", h, c)
			return r.Err()
		}
		byHopSum += c
	}
	if byHopSum != f.dropped {
		r.Failf("drops-by-hop total %d does not match dropped %d", byHopSum, f.dropped)
		return r.Err()
	}
	copy(f.dropsByHop, byHop)
	if err := f.hops.LoadState(r); err != nil {
		return err
	}

	// 8(id) + 8(input) + 8(fanout) + 8(arrival) + 8(remain) + 1(tainted)
	// bytes per live entry.
	nLive := r.Count(8*5 + 1)
	f.live = idwin.Window[liveInfo]{}
	var liveSpan idwin.Span
	for i := 0; i < nLive; i++ {
		id := cell.PacketID(r.I64())
		input := r.Int()
		fanout := r.Int()
		arrival := r.I64()
		remain := r.Int()
		tainted := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if input < 0 || input >= f.top.Ingress() || fanout > f.top.Egress() || remain < 1 || remain > fanout ||
			arrival < 0 || arrival >= r.NextSlot() {
			r.Failf("live packet %d has impossible state input=%d fanout=%d arrival=%d remain=%d",
				id, input, fanout, arrival, remain)
			return r.Err()
		}
		if !liveSpan.Admit(id) {
			r.Failf("live packet %d widens the live ID span past %d", id, idwin.MaxSpan)
			return r.Err()
		}
		lv, dup := f.live.Ensure(id)
		if dup {
			r.Failf("live packet %d appears twice", id)
			return r.Err()
		}
		*lv = liveInfo{input: int32(input), fanout: int32(fanout), arrival: arrival, remain: int32(remain), tainted: tainted}
	}

	for ni := range f.nodes {
		f.nextLocal[ni] = r.I64()
		if r.Err() == nil && f.nextLocal[ni] < 0 {
			r.Failf("node %d local id counter %d negative", ni, f.nextLocal[ni])
		}
		// 8(local) + 8(fab) + 8(hops) + 1(presence) + 4(member count).
		nCtx := r.Count(29)
		f.ctxs[ni] = idwin.Window[ctxInfo]{}
		var ctxSpan idwin.Span
		for i := 0; i < nCtx; i++ {
			local := cell.PacketID(r.I64())
			fab := cell.PacketID(r.I64())
			hops := r.Int()
			leaves := snap.ReadDests(r, f.top.Egress())
			if r.Err() != nil {
				return r.Err()
			}
			if int64(local) < 1 || int64(local) > f.nextLocal[ni] {
				r.Failf("node %d copy context has local id %d outside [1,%d]", ni, local, f.nextLocal[ni])
				return r.Err()
			}
			if f.live.Lookup(fab) == nil {
				r.Failf("node %d copy context references retired packet %d", ni, fab)
				return r.Err()
			}
			if hops < 0 || hops > f.top.MaxHops() {
				r.Failf("node %d copy context hop depth %d outside [0,%d]", ni, hops, f.top.MaxHops())
				return r.Err()
			}
			if leaves == nil || leaves.Empty() {
				r.Failf("node %d copy context for packet %d has no leaves", ni, fab)
				return r.Err()
			}
			if !ctxSpan.Admit(local) {
				r.Failf("node %d local packet %d widens the live ID span past %d", ni, local, idwin.MaxSpan)
				return r.Err()
			}
			ctx, dup := f.ctxs[ni].Ensure(local)
			if dup {
				r.Failf("node %d local packet %d appears twice", ni, local)
				return r.Err()
			}
			*ctx = ctxInfo{fab: fab, leaves: f.storeRow(leaves.Words()), hops: int32(hops)}
		}
	}

	for li := range f.links {
		// 8(fab) + 8(hops) + 8(enq) + 1(presence) + 4(member count).
		size := r.Count(29)
		if r.Err() != nil {
			return r.Err()
		}
		if size > f.cfg.LinkCapacity {
			r.Failf("link %d holds %d entries, capacity is %d", li, size, f.cfg.LinkCapacity)
			return r.Err()
		}
		lk := &f.links[li]
		lk.head, lk.size = 0, 0
		for i := 0; i < size; i++ {
			fab := cell.PacketID(r.I64())
			hops := r.Int()
			enq := r.I64()
			leaves := snap.ReadDests(r, f.top.Egress())
			if r.Err() != nil {
				return r.Err()
			}
			if f.live.Lookup(fab) == nil {
				r.Failf("link %d entry references retired packet %d", li, fab)
				return r.Err()
			}
			if hops < 1 || hops > f.top.MaxHops() {
				r.Failf("link %d entry hop depth %d outside [1,%d]", li, hops, f.top.MaxHops())
				return r.Err()
			}
			if enq < 0 || enq >= r.NextSlot() {
				r.Failf("link %d entry enqueued at slot %d outside [0,%d)", li, enq, r.NextSlot())
				return r.Err()
			}
			if leaves == nil || leaves.Empty() {
				r.Failf("link %d entry for packet %d has no leaves", li, fab)
				return r.Err()
			}
			lk.push(linkEntry{fabID: fab, leaves: f.storeRow(leaves.Words()), hops: int32(hops), enq: enq})
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.EndSection(); err != nil {
		return err
	}

	for _, nd := range f.nodes {
		if err := nd.LoadState(r); err != nil {
			return err
		}
	}
	return nil
}
