package fabric

import (
	"fmt"
	"math/bits"
	"slices"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/idwin"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/stats"
	"voqsim/internal/xrand"
)

// Node is what the fabric needs from a switch architecture:
// switchsim.Switch (declared structurally, so that switchsim can import
// fabric without a cycle) plus the live backlog of one input port.
// Every single-switch architecture the engine can drive is a Node.
type Node interface {
	Ports() int
	Arrive(p *cell.Packet)
	Step(slot int64, deliver func(cell.Delivery))
	QueueSizes(dst []int) []int
	BufferedCells() int64
	SaveState(w *snap.Writer)
	LoadState(r *snap.Reader) error
	ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64))
	SetReleaseHook(fn func(*cell.Packet))
	SetObserver(o *obs.Observer)
	InputBacklog(port int) int // QueueSizes' current value for one port
}

// Config tunes the fabric's inter-stage behaviour. The zero value asks
// for defaults.
type Config struct {
	// LinkCapacity bounds each inter-stage link's buffer, in copy
	// entries. A copy delivered into a full link is dropped and
	// counted — the daemon's bounded/counted overload policy at every
	// hop. Zero means 16.
	LinkCapacity int
	// MaxInputCells is the admission bound: a link head is held back
	// while the downstream input port already buffers this many cells,
	// pushing congestion upstream (and eventually into counted drops)
	// instead of growing interior queues without bound. Zero means 64.
	MaxInputCells int
	// Workers is the number of goroutines stepping fabric nodes within
	// each slot. 0 and 1 mean fully sequential stepping in the calling
	// goroutine — the historical engine, untouched. For any value the
	// delivery stream, statistics and snapshots are byte-identical:
	// nodes step in parallel into private per-node buffers and the
	// deliveries are merged in node order (see parallel.go). A fabric
	// with Workers > 1 owns goroutines; Close it when done.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.LinkCapacity <= 0 {
		c.LinkCapacity = 16
	}
	if c.MaxInputCells <= 0 {
		c.MaxInputCells = 64
	}
	return c
}

// Drop reports one discarded copy bundle: the leaves of packet ID that
// were lost when a full link refused the copy. Leaves is only valid
// during the callback (it is a view of a row the fabric then reuses).
type Drop struct {
	ID     cell.PacketID
	In     int   // fabric ingress the packet arrived at
	Slot   int64 // slot of the drop
	Hops   int   // links crossed before the drop
	Leaves *destset.Set
}

// ctxInfo is the fabric's per-(node, local packet) copy context: which
// fabric packet the local packet carries, the exact leaf subset it is
// responsible for, and how many links it crossed to get here. It is
// released on the node's Done delivery of the local packet.
type ctxInfo struct {
	fab    cell.PacketID
	leaves int32 // leaf-slab row
	hops   int32
}

// liveInfo is the fabric-level record of one admitted packet.
type liveInfo struct {
	input   int32
	fanout  int32 // leaves the packet was admitted for
	arrival int64
	remain  int32 // leaf copies not yet delivered or dropped
	tainted bool  // a copy was dropped: the packet never completes
}

// linkEntry is one buffered copy on an inter-stage link.
type linkEntry struct {
	fabID  cell.PacketID
	leaves int32 // leaf-slab row
	hops   int32 // links crossed including this one
	enq    int64 // slot the entry was pushed; admissible when slot > enq
}

// linkRing is a fixed-capacity FIFO of link entries.
type linkRing struct {
	buf        []linkEntry
	head, size int
}

func (l *linkRing) push(e linkEntry) {
	l.buf[(l.head+l.size)%len(l.buf)] = e
	l.size++
}

func (l *linkRing) pop() {
	l.head = (l.head + 1) % len(l.buf)
	l.size--
}

func (l *linkRing) at(i int) *linkEntry { return &l.buf[(l.head+i)%len(l.buf)] }

// Fabric drives a topology of Node switches as one compound switch.
// It implements the switchsim.Switch surface — Ports() is the fabric
// ingress count, Arrive takes fabric packets whose destination
// universe is the egress leaf count, Step runs one synchronous slot of
// every stage, the release hook, the observer and the snapshot codec —
// plus a drop hook. Every generated topology is square (ingress count
// == egress count), as Runner/LiveRunner, which use one N for both
// sides, need.
type Fabric struct {
	top *Topology
	cfg Config

	nodes   []Node
	nodeFns []func(cell.Delivery)

	links     []linkRing
	ctxs      []idwin.Window[ctxInfo] // per node, keyed by local packet ID
	nextLocal []int64
	live      idwin.Window[liveInfo] // keyed by fabric packet ID

	pools []cell.Pool // per node, over the node's ports

	// Leaf slab (DESIGN.md §14): copy contexts and link entries name
	// their leaf sets by row, top.words long; freed rows recycle LIFO
	// through leafFree. leafView is aliased over a row wherever a
	// *destset.Set is wanted.
	leafRows []uint64
	leafFree []int32
	leafView *destset.Set

	// Parallel stepping (nil/empty when cfg.Workers <= 1); parallel.go.
	par    *parPool
	parBuf [][]cell.Delivery     // per node, reused slot to slot
	parFns []func(cell.Delivery) // per node append-to-buffer callbacks

	slot    int64
	outer   func(cell.Delivery)
	release func(*cell.Packet)
	onDrop  func(Drop)
	probe   obs.Probe

	admitted       int64
	admittedCopies int64
	delivered      int64
	dropped        int64
	dropsByHop     []int64
	hops           stats.Welford
}

// New builds the fabric: one fresh switch per topology node via
// newNode (node i is seeded with root.Split("node", i)), wired by
// cfg-bounded links. newNode must return a switch with exactly the
// node's port count.
func New(top *Topology, cfg Config, newNode func(ports int, root *xrand.Rand) Node, root *xrand.Rand) (*Fabric, error) {
	cfg = cfg.withDefaults()
	f := &Fabric{
		top:        top,
		cfg:        cfg,
		nodes:      make([]Node, top.Nodes()),
		nodeFns:    make([]func(cell.Delivery), top.Nodes()),
		links:      make([]linkRing, top.NumLinks()),
		ctxs:       make([]idwin.Window[ctxInfo], top.Nodes()),
		nextLocal:  make([]int64, top.Nodes()),
		pools:      make([]cell.Pool, top.Nodes()),
		leafView:   destset.New(top.Egress()),
		dropsByHop: make([]int64, top.MaxHops()+1),
	}
	for i := range f.nodes {
		nd := newNode(top.NodePorts(i), root.Split("node", i))
		if nd == nil {
			return nil, fmt.Errorf("fabric: node factory returned nil for node %d", i)
		}
		if nd.Ports() != top.NodePorts(i) {
			return nil, fmt.Errorf("fabric: node %d has %d ports, topology wants %d",
				i, nd.Ports(), top.NodePorts(i))
		}
		f.nodes[i] = nd
		f.pools[i] = cell.NewPool(nd.Ports())
		nd.SetReleaseHook(f.pools[i].Put)
		i := i
		f.nodeFns[i] = func(d cell.Delivery) { f.handleNodeDelivery(i, d) }
	}
	for i := range f.links {
		f.links[i].buf = make([]linkEntry, cfg.LinkCapacity)
	}
	if cfg.Workers > 1 {
		f.startWorkers()
	}
	return f, nil
}

// Topology returns the fabric's wiring.
func (f *Fabric) Topology() *Topology { return f.top }

// Node returns node i, for tests and inspectors.
func (f *Fabric) Node(i int) Node { return f.nodes[i] }

// Ports implements the engine's Switch surface: the fabric ingress
// count (== egress count for Runner-drivable fabrics).
func (f *Fabric) Ports() int { return f.top.Ingress() }

// SetReleaseHook implements the engine's PacketReleaser capability:
// the fabric copies an arriving packet's destinations immediately, so
// it can hand the packet straight back to the engine's pool.
func (f *Fabric) SetReleaseHook(fn func(*cell.Packet)) { f.release = fn }

// SetDropHook registers fn to observe every counted drop as it
// happens. One consumer: the invariant checker, which retires the lost
// copies from its shadow model.
func (f *Fabric) SetDropHook(fn func(Drop)) { f.onDrop = fn }

// SetObserver attaches the observability layer at fabric scope:
// arrivals at ingress, one EvHop per link admission, one EvDrop per
// lost leaf copy, departures at egress. The registry counts the same
// end to end: arrivals_total per admitted packet, departures_total
// and packets_completed_total per delivered copy and completed packet,
// fabric_hops_total and fabric_drops_total (registered at the first
// hop and the first drop). Node-internal events stay unobserved (the
// per-node arbiter traffic would drown the end-to-end story), so a
// fabric registers no enqueued_cells_total or splits_total.
func (f *Fabric) SetObserver(o *obs.Observer) { f.probe.Attach(o, 0) }

// getRow takes a leaf row from the free list or grows the slab. Growing
// moves the slab: take row slices only after the last getRow.
func (f *Fabric) getRow() int32 {
	if k := len(f.leafFree) - 1; k >= 0 {
		r := f.leafFree[k]
		f.leafFree = f.leafFree[:k]
		return r
	}
	// Grow-then-reslice, not append(rows, make(...)...): an
	// instrumented (-race) build keeps that temporary on the heap. The
	// new row needs no clearing, since storeRow and childLeaves write
	// every word of the row they take.
	w, n := f.top.words, len(f.leafRows)
	f.leafRows = slices.Grow(f.leafRows, w)[:n+w]
	return int32(n / w)
}

func (f *Fabric) putRow(r int32) { f.leafFree = append(f.leafFree, r) }

// storeRow copies a leaf set's words into a fresh row.
func (f *Fabric) storeRow(leaves []uint64) int32 {
	r := f.getRow()
	copy(f.row(r), leaves)
	return r
}

// row returns the words of leaf row r.
func (f *Fabric) row(r int32) []uint64 {
	return f.leafRows[int(r)*f.top.words : int(r+1)*f.top.words]
}

// viewRow aliases the fabric's one leaf view over row r.
func (f *Fabric) viewRow(r int32) *destset.Set {
	f.leafView.Alias(f.row(r))
	return f.leafView
}

// eachBit calls fn for every set bit of words, in ascending order.
func eachBit(words []uint64, fn func(i int)) {
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			fn(wi<<6 | bits.TrailingZeros64(w))
		}
	}
}

// Arrive admits one fabric packet at fabric ingress p.Input. The
// destination universe must be the fabric's egress leaf count; the
// engine's one-arrival-per-ingress-per-slot discipline carries over to
// the first-stage switches by construction (each ingress binds a
// distinct node input port).
func (f *Fabric) Arrive(p *cell.Packet) {
	if p.Input < 0 || p.Input >= f.top.Ingress() {
		panic(fmt.Sprintf("fabric: arrival at ingress %d of a %d-ingress fabric", p.Input, f.top.Ingress()))
	}
	if p.Dests.Universe() != f.top.Egress() {
		panic(fmt.Sprintf("fabric: arrival with destination universe %d, fabric has %d leaves",
			p.Dests.Universe(), f.top.Egress()))
	}
	fanout := p.Fanout()
	if fanout == 0 {
		panic("fabric: arrival with no destinations")
	}
	lv, dup := f.live.Ensure(p.ID)
	if dup {
		panic(fmt.Sprintf("fabric: duplicate arrival of packet %d", p.ID))
	}
	*lv = liveInfo{input: int32(p.Input), fanout: int32(fanout), arrival: p.Arrival, remain: int32(fanout)}
	f.admitted++
	f.admittedCopies += int64(fanout)
	if f.probe.On() {
		f.probe.Arrival(p, fanout)
	}
	ep := f.top.IngressAt(p.Input)
	f.admitLocal(ep.Node, p.ID, f.storeRow(p.Dests.Words()), 0, ep.Port, p.Arrival)
	if f.release != nil {
		f.release(p)
	}
}

// admitLocal hands one copy (fabric packet fabID, responsible for
// leaves, hops links deep) to node ni as a fresh node-local packet
// arriving at input port in this slot. Ownership of the leaves row
// moves to the copy context.
func (f *Fabric) admitLocal(ni int, fabID cell.PacketID, leaves int32, hops int32, in int, slot int64) {
	local := f.pools[ni].Get()
	f.nextLocal[ni]++
	id := cell.PacketID(f.nextLocal[ni])
	local.ID, local.Input, local.Arrival = id, in, slot
	f.top.LocalDests(ni, f.viewRow(leaves), local.Dests)
	ctx, dup := f.ctxs[ni].Ensure(id)
	if dup {
		panic(fmt.Sprintf("fabric: node %d local packet id %d reused", ni, id))
	}
	*ctx = ctxInfo{fab: fabID, leaves: leaves, hops: hops}
	f.nodes[ni].Arrive(local)
}

// Step runs one synchronous fabric slot: admit ready link heads into
// their downstream switches (one per link — each link feeds one input
// port, which takes one arrival per slot), then step every node.
// Deliveries out of leaf-bound ports surface through deliver with the
// fabric packet's identity; deliveries into links become entries
// admissible from the next slot.
func (f *Fabric) Step(slot int64, deliver func(cell.Delivery)) {
	f.slot = slot
	f.outer = deliver
	for li := range f.links {
		lk := &f.links[li]
		if lk.size == 0 {
			continue
		}
		head := lk.at(0)
		if head.enq >= slot {
			continue
		}
		to := f.top.links[li].To
		if f.nodes[to.Node].InputBacklog(to.Port) >= f.cfg.MaxInputCells {
			continue // backpressure: retry next slot
		}
		if f.probe.On() {
			lv := f.live.Lookup(head.fabID)
			f.probe.Hop(slot, int(lv.input), to.Node, int(head.hops), lv.arrival, int64(head.fabID))
		}
		f.admitLocal(to.Node, head.fabID, head.leaves, head.hops, to.Port, slot)
		lk.pop()
	}
	if f.par != nil {
		f.stepNodesParallel(slot)
	} else {
		for i, nd := range f.nodes {
			nd.Step(slot, f.nodeFns[i])
		}
	}
	f.outer = nil
}

// handleNodeDelivery resolves one node-level delivery: an egress leaf
// delivery surfaces as a fabric delivery; a link-bound delivery splits
// off the child leaf subset and pushes it onto the link (or drops it,
// counted, when the link is full).
func (f *Fabric) handleNodeDelivery(ni int, d cell.Delivery) {
	ctx := f.ctxs[ni].Lookup(d.ID)
	if ctx == nil {
		panic(fmt.Sprintf("fabric: node %d delivered unknown local packet %d", ni, d.ID))
	}
	switch {
	case f.top.outLeaf[ni][d.Out] >= 0:
		leaf := int(f.top.outLeaf[ni][d.Out])
		lv := f.live.Lookup(ctx.fab)
		if lv == nil {
			panic(fmt.Sprintf("fabric: delivery of retired packet %d", ctx.fab))
		}
		lv.remain--
		if lv.remain < 0 {
			panic(fmt.Sprintf("fabric: packet %d over-delivered", ctx.fab))
		}
		last := lv.remain == 0
		f.delivered++
		f.hops.Add(float64(ctx.hops) + 1)
		if f.probe.On() {
			f.probe.Departure(f.slot, int(lv.input), leaf, lv.arrival, int64(ctx.fab), last)
		}
		fd := cell.Delivery{
			ID: ctx.fab, In: int(lv.input), Out: leaf, Slot: f.slot, Arrival: lv.arrival,
			Last: last, Done: last && !lv.tainted, Fanout: lv.fanout,
		}
		if last {
			f.live.Release(ctx.fab)
		}
		if f.outer != nil {
			f.outer(fd)
		}
	case f.top.outLink[ni][d.Out] >= 0:
		li := int(f.top.outLink[ni][d.Out])
		sub := f.getRow() // may move the slab: before any row slice
		if !f.top.childLeaves(ni, d.Out, f.row(ctx.leaves), f.row(sub)) {
			panic(fmt.Sprintf("fabric: node %d delivered port %d with no routed leaves for packet %d",
				ni, d.Out, ctx.fab))
		}
		lk := &f.links[li]
		if lk.size == len(lk.buf) {
			f.dropCopy(ctx, sub)
		} else {
			lk.push(linkEntry{fabID: ctx.fab, leaves: sub, hops: ctx.hops + 1, enq: f.slot})
		}
	default:
		panic(fmt.Sprintf("fabric: node %d delivered out unwired port %d", ni, d.Out))
	}
	if d.Done {
		f.putRow(ctx.leaves)
		f.ctxs[ni].Release(d.ID)
	}
}

// dropCopy counts the loss of one copy bundle (the daemon's overload
// policy, per hop): the leaves never arrive, the fabric packet's
// outstanding count shrinks accordingly, and the drop hook and tracer
// see exactly what was lost. Queue structure is untouched, which is
// why every per-stage invariant survives a drop. The sub row is freed.
func (f *Fabric) dropCopy(ctx *ctxInfo, sub int32) {
	lost := f.viewRow(sub)
	cnt := lost.Count()
	f.dropped += int64(cnt)
	f.dropsByHop[ctx.hops] += int64(cnt)
	lv := f.live.Lookup(ctx.fab)
	if lv == nil {
		panic(fmt.Sprintf("fabric: drop of retired packet %d", ctx.fab))
	}
	lv.remain -= int32(cnt)
	if lv.remain < 0 {
		panic(fmt.Sprintf("fabric: packet %d over-dropped", ctx.fab))
	}
	lv.tainted = true
	if f.probe.On() {
		in, arr := int(lv.input), lv.arrival
		eachBit(f.row(sub), func(leaf int) {
			f.probe.Drop(f.slot, in, leaf, int(ctx.hops), arr, int64(ctx.fab))
		})
	}
	if f.onDrop != nil {
		f.onDrop(Drop{ID: ctx.fab, In: int(lv.input), Slot: f.slot, Hops: int(ctx.hops), Leaves: lost})
	}
	if lv.remain == 0 {
		f.live.Release(ctx.fab)
	}
	f.putRow(sub)
}

// QueueSizes implements the engine's Switch surface: per fabric
// ingress, the cell backlog of the bound first-stage input port (the
// fabric's ingress-stage occupancy, which is where an unsustainable
// load accumulates — interior stages are bounded by the admission
// policy).
func (f *Fabric) QueueSizes(dst []int) []int {
	for i, ep := range f.top.ingress {
		dst[i] = f.nodes[ep.Node].InputBacklog(ep.Port)
	}
	return dst
}

// BufferedCells implements the engine's Switch surface: total backlog
// across every stage — node buffers plus link entries — so the
// engine's instability ceiling and end-of-run drift check see the
// whole fabric.
func (f *Fabric) BufferedCells() int64 {
	var total int64
	for _, nd := range f.nodes {
		total += nd.BufferedCells()
	}
	for i := range f.links {
		total += int64(f.links[i].size)
	}
	return total
}

// ForEachCopy calls fn for every copy ForEachPending visits, with the
// fabric packet's ingress and arrival slot: the fabric's buffer walk,
// in the shape of its nodes'.
func (f *Fabric) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	f.ForEachPending(func(id cell.PacketID, leaf int) {
		lv := f.live.Lookup(id)
		fn(int(lv.input), leaf, id, lv.arrival)
	})
}

// ForEachPending calls fn once for every (fabric packet, leaf) copy
// still buffered somewhere in the fabric — in node buffers (where one
// buffered node-level copy stands for every leaf it is responsible for
// through that output) or on inter-stage links. The invariant
// checker's conservation pass compares this against its shadow model:
// every admitted copy is here exactly once, or delivered, or counted
// dropped. It always returns true: every node walks its buffer.
func (f *Fabric) ForEachPending(fn func(id cell.PacketID, leaf int)) bool {
	for ni, nd := range f.nodes {
		nd.ForEachCopy(func(_, out int, id cell.PacketID, _ int64) {
			ctx := f.ctxs[ni].Lookup(id)
			if ctx == nil {
				panic(fmt.Sprintf("fabric: node %d buffers unknown local packet %d", ni, id))
			}
			mask := f.top.leafRow(ni, out)
			for wi, w := range f.row(ctx.leaves) {
				for w &= mask[wi]; w != 0; w &= w - 1 {
					fn(ctx.fab, wi<<6|bits.TrailingZeros64(w))
				}
			}
		})
	}
	for li := range f.links {
		lk := &f.links[li]
		for i := 0; i < lk.size; i++ {
			ent := lk.at(i)
			eachBit(f.row(ent.leaves), func(leaf int) { fn(ent.fabID, leaf) })
		}
	}
	return true
}
