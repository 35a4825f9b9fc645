// Package check is the runtime invariant checker for switch
// simulations: it wraps any switch and verifies, slot by slot, the
// structural properties the paper's correctness argument rests on
// (Pan & Yang §II–III) plus the repo's own observability contract
// (DESIGN.md §8).
//
// The checker is a man-in-the-middle: it sees every Arrive and every
// Delivery the wrapped switch emits, maintains its own shadow model of
// what the buffers must contain, and cross-checks the switch's
// accounting counters against that model. Violations are collected, not
// panicked, so a single run can report several independent breakages.
//
// The invariant catalogue (DESIGN.md §9 documents each in full):
//
//	I1 output exclusivity    — each output delivers ≤ 1 cell per slot
//	I2 input discipline      — per-slot input grants obey the queue mode
//	I3 delivery validity     — deliveries name real, owed (in,out,pkt)
//	I4 FIFO order            — per-queue FIFO and timestamp monotonicity
//	I5 fanout accounting     — Last ⇔ final copy of the data cell;
//	                           Done ⇔ final copy of the packet, never
//	                           on a fabric packet that lost a copy
//	I6 conservation          — offered = delivered + buffered, counters
//	                           agree with the shadow model
//	I7 event consistency     — obs events ↔ arrivals/deliveries 1:1
//	I8 arbitration rule      — grants go to requesters; min-timestamp
//	                           arbiters grant the minimum requested TS
//	F1 fabric conservation   — in a multi-stage fabric, every admitted
//	                           copy is buffered in exactly one stage (a
//	                           node VOQ or an inter-stage link), or
//	                           delivered to its leaf, or counted dropped
//
// Checking is behavioural passivity by construction: the checker never
// draws randomness and never mutates the wrapped switch beyond
// attaching an observer (which the engine guarantees is draw-free), so
// a checked run delivers bit-identically to an unchecked one.
package check

import (
	"fmt"
	"math"
	"sort"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/eslip"
	"voqsim/internal/fabric"
	"voqsim/internal/fifoq"
	"voqsim/internal/obs"
	"voqsim/internal/sched/pim"
	"voqsim/internal/snap"
	"voqsim/internal/wba"
)

// NumInvariants is the size of the invariant catalogue (I1..I8 plus
// the fabric conservation invariant F1).
const NumInvariants = 9

// Switch is the structural surface the checker needs: switchsim.Switch,
// declared here so that switchsim can import check without a cycle.
// ForEachCopy is what the checker primes its shadow model from after a
// restore.
type Switch interface {
	Ports() int
	Arrive(p *cell.Packet)
	Step(slot int64, deliver func(cell.Delivery))
	QueueSizes(into []int) []int
	BufferedCells() int64
	SaveState(w *snap.Writer)
	LoadState(r *snap.Reader) error
	ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64))
	SetObserver(o *obs.Observer)
}

// Unwrapper is implemented by test shims that wrap a real switch (for
// example the fault-injection mutants in this package's tests). The
// checker unwraps before detecting the architecture profile so that a
// tampering wrapper around a core.Switch is still checked under the
// full core rules rather than the conservative default.
type Unwrapper interface {
	CheckUnwrap() Switch
}

// grantRule says how request/grant events from the wrapped switch are
// judged under I8.
type grantRule uint8

const (
	// grantNone disables I8 (the architecture emits no request/grant
	// events, or emits them with semantics the checker does not model).
	grantNone grantRule = iota
	// grantRequesters checks only that every grant goes to an input
	// that requested that output in the same arbitration round.
	grantRequesters
	// grantMinTS additionally checks the FIFOMS property (§III Table 2):
	// a grant carries the minimum timestamp requested at its output in
	// that round.
	grantMinTS
)

// Options tunes a Checker. The zero value asks for full checking with
// defaults filled in by Wrap.
type Options struct {
	// Every is the cadence, in slots, of the deep cross-check of switch
	// counters against the shadow model (I6 and the per-queue state of
	// I4). Delivery-level checks always run every slot. Default 1.
	Every int64
	// MaxViolations caps how many violations are recorded verbatim
	// (further ones are only counted). Default 32.
	MaxViolations int
}

// Violation is one detected invariant breakage.
type Violation struct {
	Slot      int64  // slot in which the breakage was observed
	Invariant string // catalogue id, "I1".."I8"
	Msg       string // human-readable detail
}

func (v Violation) String() string {
	return fmt.Sprintf("slot %d: %s: %s", v.Slot, v.Invariant, v.Msg)
}

// Error aggregates a run's violations.
type Error struct {
	Violations []Violation // first Options.MaxViolations, in order
	Total      int         // total observed, including unrecorded ones
}

func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return fmt.Sprintf("check: %d invariant violations", e.Total)
	}
	msg := fmt.Sprintf("check: %d invariant violations, first: %s", e.Total, e.Violations[0])
	if e.Total > 1 {
		msg += fmt.Sprintf(" (and %d more)", e.Total-1)
	}
	return msg
}

// Per-slot input-side delivery discipline.
type inputRule uint8

const (
	// inputAny places no per-slot constraint on an input (conservative).
	inputAny inputRule = iota
	// inputSharedPacket allows several deliveries from one input per
	// slot only if they belong to the same packet (ModeShared fanout
	// splitting, and WBA/ESLIP multicast residue service).
	inputSharedPacket
	// inputSingleDelivery allows at most one delivery per input per
	// slot (ModeCopied: strictly unicast crossbar).
	inputSingleDelivery
)

// Semantics of Delivery.Last / departure Aux.
type lastRule uint8

const (
	// lastUnknown skips I5's Last half (the architecture's Last
	// semantics are not modelled); its Done half holds in every profile.
	lastUnknown lastRule = iota
	// lastPacket: Last is set exactly on the final copy of the packet.
	lastPacket
	// lastCopy: every delivery is a full cell (ModeCopied); Last always.
	lastCopy
)

// profile is the detected architecture contract the checker enforces.
type profile struct {
	core      *core.Switch // non-nil for core-substrate switches
	wba       *wba.Switch  // non-nil for WBA
	eslip     *eslip.Switch
	fab       *fabric.Fabric // non-nil for multi-stage fabrics
	input     inputRule
	last      lastRule
	grant     grantRule
	fifoOrder bool // per-(in,out) timestamp monotonicity holds
	pairsEq   bool // grant events ↔ delivered pairs are a bijection
	name      string
}

// detect classifies the (unwrapped) switch into a checking profile.
func detect(sw Switch) profile {
	switch s := sw.(type) {
	case *core.Switch:
		p := profile{core: s, fifoOrder: true, name: "core/" + s.Arbiter().Name()}
		if s.Arbiter().Mode() == core.ModeShared {
			p.input, p.last = inputSharedPacket, lastPacket
		} else {
			p.input, p.last = inputSingleDelivery, lastCopy
		}
		switch s.Arbiter().(type) {
		case *core.FIFOMS:
			p.grant, p.pairsEq = grantMinTS, true
		case *pim.Arbiter:
			p.grant, p.pairsEq = grantRequesters, true
		default:
			p.grant = grantNone
		}
		return p
	case *wba.Switch:
		// WBA serves whole packets FIFO per input; its "age" criterion
		// is the arrival slot, so grants carry the minimum requested
		// timestamp, like FIFOMS.
		return profile{wba: s, input: inputSharedPacket, last: lastPacket,
			grant: grantMinTS, fifoOrder: true, pairsEq: true, name: "wba"}
	case *eslip.Switch:
		// ESLIP's multicast queue bypasses the unicast VOQs, so
		// per-(in,out) timestamp monotonicity does not hold; grants are
		// only checked against the round's requesters.
		return profile{eslip: s, input: inputSharedPacket, last: lastPacket,
			grant: grantRequesters, pairsEq: true, name: "eslip"}
	case *fabric.Fabric:
		// Fabric deliveries are end-to-end: In is the fabric ingress,
		// Out the egress leaf, and Last fires on the final surviving
		// copy (drops included — the checker interposes on the drop
		// hook so the shadow model retires dropped copies too). Copies
		// of several packets from one ingress can surface in one slot
		// via different stages, and path lengths differ per leaf, so
		// neither an input discipline nor timestamp monotonicity
		// applies; I1 still holds because each leaf is one last-stage
		// output port.
		return profile{fab: s, input: inputAny, last: lastPacket,
			grant: grantNone, name: "fabric/" + s.Topology().Name()}
	default:
		return profile{input: inputAny, last: lastUnknown, grant: grantNone, name: "generic"}
	}
}

// pktState is the checker's shadow record of one live packet.
type pktState struct {
	input     int
	arrival   int64
	fanout    int          // 0 when primed from a restored switch: unknown
	remaining *destset.Set // destinations not yet delivered
	tainted   bool         // a fabric dropped one of its copies
}

// shadowCell mirrors one address cell in a shadow VOQ.
type shadowCell struct {
	id cell.PacketID
	ts int64
}

// Checker wraps a switch and verifies the invariant catalogue. It
// implements Switch itself, plus pass-throughs for the reporter
// capabilities of the wrapped switch, so it can be dropped anywhere the
// original switch was used.
type Checker struct {
	inner Switch // the switch as driven (possibly a test wrapper)
	base  Switch // fully unwrapped switch, used for state inspection
	prof  profile
	opt   Options
	n     int

	// Shadow model.
	pkts    map[cell.PacketID]*pktState
	voq     []fifoq.Queue[shadowCell] // core: n*n shadow VOQs, [in*n+out]
	inq     []fifoq.Queue[cell.PacketID]
	lastTS  []int64 // last delivered timestamp per (in,out)
	initial []bool  // lastTS[i] not yet written

	// Per-slot matching state.
	outSlot []int64 // last slot each output delivered in
	inSlot  []int64
	inPkt   []cell.PacketID

	// Conservation counters.
	offeredPackets   int64
	offeredCopies    int64
	deliveredCopies  int64
	droppedCopies    int64 // fabric only: copies retired by counted drops
	completedPackets int64
	outstanding      int64 // address-cell copies still owed
	resident         int64 // packets with ≥1 copy still owed
	perInResident    []int64
	perInOutstanding []int64

	// Event capture (I7/I8). outer is the caller's tracer (SetObserver):
	// it receives each slot's events once they are verified.
	tracer     *obs.Tracer
	outer      *obs.Tracer
	events     []obs.Event
	arrivals   []cell.Packet // ID/Input/Arrival + fanout via aux
	arrFanout  []int
	deliveries []cell.Delivery

	sizes []int // scratch for QueueSizes

	// Fabric counter baselines: a restored fabric resumes with non-zero
	// delivery/drop counters the checker never witnessed, so the F1
	// counter cross-check compares deltas from these.
	fabDelivered0 int64
	fabDropped0   int64

	violations []Violation
	total      int
	slots      int64
}

// Wrap returns a Checker around sw. The checker detects the switch's
// architecture (unwrapping any Unwrapper shims first), fills Options
// defaults, and attaches an observer to capture arbitration and
// lifecycle events for I7/I8.
func Wrap(sw Switch, opt Options) *Checker {
	if opt.Every <= 0 {
		opt.Every = 1
	}
	if opt.MaxViolations <= 0 {
		opt.MaxViolations = 32
	}
	base := sw
	for {
		u, ok := base.(Unwrapper)
		if !ok {
			break
		}
		base = u.CheckUnwrap()
	}
	prof := detect(base)
	n := sw.Ports()
	c := &Checker{
		inner:            sw,
		base:             base,
		prof:             prof,
		opt:              opt,
		n:                n,
		pkts:             make(map[cell.PacketID]*pktState),
		lastTS:           make([]int64, n*n),
		initial:          make([]bool, n*n),
		outSlot:          make([]int64, n),
		inSlot:           make([]int64, n),
		inPkt:            make([]cell.PacketID, n),
		perInResident:    make([]int64, n),
		perInOutstanding: make([]int64, n),
		sizes:            make([]int, n),
	}
	for i := range c.outSlot {
		c.outSlot[i] = -1
		c.inSlot[i] = -1
	}
	if prof.core != nil {
		c.voq = make([]fifoq.Queue[shadowCell], n*n)
	}
	if prof.wba != nil {
		c.inq = make([]fifoq.Queue[cell.PacketID], n)
	}
	if prof.fab != nil {
		prof.fab.SetDropHook(c.handleDrop)
	}
	c.tracer = obs.NewTracer(1 << 12)
	c.tracer.OnFull(func(batch []obs.Event) error {
		c.events = append(c.events, batch...)
		return nil
	})
	base.SetObserver(&obs.Observer{Trace: c.tracer})
	if base.BufferedCells() > 0 {
		// Wrapping a switch restored from a snapshot: seed the shadow
		// model from its buffer content (state.go).
		c.prime()
	}
	return c
}

// Ports implements Switch.
func (c *Checker) Ports() int { return c.inner.Ports() }

// QueueSizes implements Switch by forwarding to the wrapped switch.
func (c *Checker) QueueSizes(into []int) []int { return c.inner.QueueSizes(into) }

// BufferedCells implements Switch by forwarding to the wrapped switch.
func (c *Checker) BufferedCells() int64 { return c.inner.BufferedCells() }

// Inner returns the wrapped switch as driven (not unwrapped).
func (c *Checker) Inner() Switch { return c.inner }

// SetReleaseHook is a deliberate no-op, so a checked run never reuses
// a packet. The checker is there to catch a switch that breaks its
// contract, and one that released a packet too early would, behind a
// recycling pool, read another packet's ID and destinations and fail
// somewhere unrelated, or not at all; left to the GC, the packet stays
// what the shadow model says it is. The poisoned-pool battery
// (switchsim's TestRecyclingInvisible) checks the release points.
func (c *Checker) SetReleaseHook(func(*cell.Packet)) {}

// SetObserver lets a checked run be instrumented like a bare one. The
// wrapped switch has one observer slot and the checker's event capture
// stays in it: o's metrics registry is handed to the switch as is, and
// trace events reach o.Trace through the checker, in emission order,
// once verifyEvents has checked the slot they belong to — the caller's
// trace is the one an unchecked run writes. A nil o detaches the
// caller, never the checker.
func (c *Checker) SetObserver(o *obs.Observer) {
	inner := &obs.Observer{Trace: c.tracer}
	c.outer = nil
	if o != nil {
		inner.Metrics, c.outer = o.Metrics, o.Trace
	}
	c.base.SetObserver(inner)
}

// Arrive records the packet in the shadow model and forwards it.
func (c *Checker) Arrive(p *cell.Packet) {
	slot := p.Arrival
	if old := c.pkts[p.ID]; old != nil {
		c.violatef(slot, "I3", "duplicate arrival of packet %d", p.ID)
	}
	fanout := p.Fanout()
	st := &pktState{input: p.Input, arrival: p.Arrival, fanout: fanout, remaining: p.Dests.Clone()}
	c.pkts[p.ID] = st
	c.offeredPackets++
	c.offeredCopies += int64(fanout)
	c.outstanding += int64(fanout)
	c.resident++
	if p.Input >= 0 && p.Input < c.n {
		c.perInResident[p.Input]++
		c.perInOutstanding[p.Input] += int64(fanout)
	}
	if c.prof.core != nil {
		sc := shadowCell{id: p.ID, ts: p.Arrival}
		p.Dests.ForEach(func(out int) {
			c.voq[p.Input*c.n+out].Push(sc)
		})
	}
	if c.prof.wba != nil {
		c.inq[p.Input].Push(p.ID)
	}
	c.arrivals = append(c.arrivals, *p)
	c.arrFanout = append(c.arrFanout, fanout)
	c.inner.Arrive(p)
}

// Step forwards the slot to the wrapped switch, checking every
// delivery it emits, then runs the slot-level cross-checks.
func (c *Checker) Step(slot int64, deliver func(cell.Delivery)) {
	c.inner.Step(slot, func(d cell.Delivery) {
		c.checkDelivery(slot, d)
		c.deliveries = append(c.deliveries, d)
		if deliver != nil {
			deliver(d)
		}
	})
	c.slots++
	c.verifyEvents(slot)
	if c.slots%c.opt.Every == 0 {
		c.deepCheck(slot)
	}
}

// checkDelivery verifies one delivery record against the shadow model
// (I1–I5) and updates the model.
func (c *Checker) checkDelivery(slot int64, d cell.Delivery) {
	if d.Slot != slot {
		c.violatef(slot, "I3", "delivery of packet %d stamped slot %d", d.ID, d.Slot)
	}
	if d.In < 0 || d.In >= c.n || d.Out < 0 || d.Out >= c.n {
		c.violatef(slot, "I3", "delivery (%d->%d) outside %d ports", d.In, d.Out, c.n)
		return
	}
	// I1: one cell per output per slot (crossbar constraint, §III).
	if c.outSlot[d.Out] == slot {
		c.violatef(slot, "I1", "output %d delivered twice", d.Out)
	}
	c.outSlot[d.Out] = slot

	st := c.pkts[d.ID]
	if st == nil {
		c.violatef(slot, "I3", "delivery of unknown packet %d", d.ID)
		return
	}
	if st.input != d.In {
		c.violatef(slot, "I3", "packet %d arrived at input %d, delivered from %d",
			d.ID, st.input, d.In)
	}
	if st.arrival != d.Arrival {
		c.violatef(slot, "I3", "packet %d arrived in slot %d, its copy carries %d",
			d.ID, st.arrival, d.Arrival)
	}
	if st.fanout != 0 && int(d.Fanout) != st.fanout {
		c.violatef(slot, "I3", "packet %d has fanout %d, its copy carries %d",
			d.ID, st.fanout, d.Fanout)
	}

	// I2: input-side discipline for this queue mode.
	switch c.prof.input {
	case inputSharedPacket:
		if c.inSlot[d.In] == slot && c.inPkt[d.In] != d.ID {
			c.violatef(slot, "I2", "input %d delivered two packets (%d and %d) in one slot",
				d.In, c.inPkt[d.In], d.ID)
		}
	case inputSingleDelivery:
		if c.inSlot[d.In] == slot {
			c.violatef(slot, "I2", "input %d delivered twice in one slot", d.In)
		}
	}
	c.inSlot[d.In] = slot
	c.inPkt[d.In] = d.ID

	// I3: the copy must still be owed to this output.
	if !st.remaining.Contains(d.Out) {
		c.violatef(slot, "I3", "packet %d not (or no longer) destined to output %d", d.ID, d.Out)
		return
	}

	// I4: FIFO order of the shadow queue feeding this delivery.
	if c.prof.core != nil {
		q := &c.voq[d.In*c.n+d.Out]
		switch {
		case q.Len() == 0:
			c.violatef(slot, "I4", "VOQ[%d][%d] shadow empty on delivery of packet %d",
				d.In, d.Out, d.ID)
		case q.Front().id != d.ID:
			c.violatef(slot, "I4", "VOQ[%d][%d] HOL is packet %d, delivered %d",
				d.In, d.Out, q.Front().id, d.ID)
		default:
			q.Pop()
		}
	}
	if c.prof.wba != nil {
		q := &c.inq[d.In]
		if q.Len() == 0 || q.Front() != d.ID {
			c.violatef(slot, "I4", "input %d FIFO head is not packet %d", d.In, d.ID)
		}
	}
	if c.prof.fifoOrder {
		k := d.In*c.n + d.Out
		if c.initial[k] && st.arrival < c.lastTS[k] {
			c.violatef(slot, "I4", "timestamp regression on (%d,%d): %d after %d",
				d.In, d.Out, st.arrival, c.lastTS[k])
		}
		c.lastTS[k] = st.arrival
		c.initial[k] = true
	}

	// Account the copy.
	st.remaining.Remove(d.Out)
	c.outstanding--
	c.perInOutstanding[d.In]--
	c.deliveredCopies++
	final := st.remaining.Empty()

	// I5: Last semantics (§II Table 1: destroy the data cell when the
	// fanout counter reaches zero).
	switch c.prof.last {
	case lastPacket:
		if d.Last != final {
			c.violatef(slot, "I5", "packet %d Last=%v with %d copies outstanding",
				d.ID, d.Last, st.remaining.Count())
		}
	case lastCopy:
		if !d.Last {
			c.violatef(slot, "I5", "copied-mode delivery of packet %d without Last", d.ID)
		}
	}
	// I5, in every profile: Done marks the copy that leaves the packet
	// nothing owed (the paper's fanoutCounter reaching zero), and never
	// a fabric packet that lost a copy. A restored fabric packet may
	// have lost one before the checkpoint, so its final copy may lack
	// Done.
	switch {
	case d.Done && !final:
		c.violatef(slot, "I5", "packet %d Done with %d copies outstanding", d.ID, st.remaining.Count())
	case d.Done && st.tainted:
		c.violatef(slot, "I5", "packet %d Done after losing a copy", d.ID)
	case final && !d.Done && !st.tainted && !(st.fanout == 0 && c.prof.fab != nil):
		c.violatef(slot, "I5", "packet %d final copy without Done", d.ID)
	}

	if final {
		c.completedPackets++
		c.resident--
		c.perInResident[d.In]--
		if c.prof.wba != nil {
			q := &c.inq[d.In]
			if q.Len() > 0 && q.Front() == d.ID {
				q.Pop()
			}
		}
		delete(c.pkts, d.ID)
	}
}

// FabricStats implements the engine's FabricReporter surface by
// forwarding to the wrapped fabric; nil for non-fabric profiles.
func (c *Checker) FabricStats() *fabric.Stats {
	if c.prof.fab == nil {
		return nil
	}
	return c.prof.fab.FabricStats()
}

// handleDrop is the checker's interposed fabric drop hook: a counted
// drop retires the lost copies from the shadow model (so Last and
// conservation keep agreeing with the fabric), after validating that
// every dropped leaf was actually owed.
func (c *Checker) handleDrop(d fabric.Drop) {
	st := c.pkts[d.ID]
	if st == nil {
		c.violatef(d.Slot, "I3", "drop of unknown packet %d", d.ID)
	} else {
		dropped := int64(0)
		d.Leaves.ForEach(func(leaf int) {
			if !st.remaining.Contains(leaf) {
				c.violatef(d.Slot, "I3", "packet %d not (or no longer) destined to dropped leaf %d",
					d.ID, leaf)
				return
			}
			st.remaining.Remove(leaf)
			dropped++
		})
		st.tainted = true
		c.outstanding -= dropped
		c.droppedCopies += dropped
		if st.input >= 0 && st.input < c.n {
			c.perInOutstanding[st.input] -= dropped
		}
		if st.remaining.Empty() {
			// The packet retires without completing: every copy was
			// delivered or dropped, none are owed.
			c.resident--
			if st.input >= 0 && st.input < c.n {
				c.perInResident[st.input]--
			}
			delete(c.pkts, d.ID)
		}
	}
}

// deepCheck cross-checks the switch's own counters and queue state
// against the shadow model (I6, plus per-queue I4 state for core).
func (c *Checker) deepCheck(slot int64) {
	if c.offeredCopies != c.deliveredCopies+c.droppedCopies+c.outstanding {
		c.violatef(slot, "I6", "copy conservation broken: offered %d != delivered %d + dropped %d + outstanding %d",
			c.offeredCopies, c.deliveredCopies, c.droppedCopies, c.outstanding)
	}
	switch {
	case c.prof.core != nil:
		s := c.prof.core
		if got := s.BufferedAddressCells(); got != c.outstanding {
			c.violatef(slot, "I6", "switch holds %d address cells, shadow expects %d",
				got, c.outstanding)
		}
		want := c.resident
		if s.Arbiter().Mode() == core.ModeCopied {
			want = c.outstanding
		}
		if got := s.BufferedCells(); got != want {
			c.violatef(slot, "I6", "switch holds %d data cells, shadow expects %d", got, want)
		}
		c.deepCheckCoreQueues(slot, s)
	case c.prof.wba != nil || c.prof.eslip != nil:
		if got := c.base.BufferedCells(); got != c.resident {
			c.violatef(slot, "I6", "switch holds %d packets, shadow expects %d", got, c.resident)
		}
		c.base.QueueSizes(c.sizes)
		for in, got := range c.sizes {
			if int64(got) != c.perInResident[in] {
				c.violatef(slot, "I6", "input %d reports %d queued packets, shadow expects %d",
					in, got, c.perInResident[in])
			}
		}
	case c.prof.fab != nil:
		c.deepCheckFabric(slot)
	}
}

// deepCheckFabric is the F1 conservation pass: the fabric's buffered
// copy multiset — every (packet, leaf) copy in a node buffer or on a
// link — must match the shadow model's outstanding copies exactly.
// Together with the counter identity above (offered = delivered +
// dropped + outstanding) this pins every admitted copy to exactly one
// fate: buffered in exactly one stage, delivered to its leaf, or
// counted dropped. A mis-routed copy (buffered under the wrong leaf),
// a duplicated split (buffered twice) or a vanished copy all surface
// here.
func (c *Checker) deepCheckFabric(slot int64) {
	f := c.prof.fab
	st := f.FabricStats()
	if st.DeliveredCopies-c.fabDelivered0 != c.deliveredCopies ||
		st.DroppedCopies-c.fabDropped0 != c.droppedCopies {
		c.violatef(slot, "F1", "fabric counts %d delivered / %d dropped copies, shadow expects %d / %d",
			st.DeliveredCopies-c.fabDelivered0, st.DroppedCopies-c.fabDropped0,
			c.deliveredCopies, c.droppedCopies)
	}
	type pend struct {
		id   cell.PacketID
		leaf int
	}
	counts := make(map[pend]int)
	f.ForEachPending(func(id cell.PacketID, leaf int) { counts[pend{id, leaf}]++ })
	for id, ps := range c.pkts {
		ps.remaining.ForEach(func(leaf int) {
			k := pend{id, leaf}
			if counts[k] == 0 {
				c.violatef(slot, "F1", "copy (packet %d -> leaf %d) owed but buffered nowhere", id, leaf)
				return
			}
			counts[k]--
			if counts[k] == 0 {
				delete(counts, k)
			}
		})
	}
	if len(counts) > 0 {
		extra := make([]pend, 0, len(counts))
		for k := range counts {
			extra = append(extra, k)
		}
		sort.Slice(extra, func(i, j int) bool {
			return extra[i].id < extra[j].id ||
				(extra[i].id == extra[j].id && extra[i].leaf < extra[j].leaf)
		})
		for _, k := range extra {
			c.violatef(slot, "F1", "copy (packet %d -> leaf %d) buffered %d time(s) beyond what is owed",
				k.id, k.leaf, counts[k])
		}
	}
}

// deepCheckCoreQueues compares every VOQ's length and HOL timestamp
// with the shadow FIFO, and the per-input data-cell counts.
func (c *Checker) deepCheckCoreQueues(slot int64, s *core.Switch) {
	copied := s.Arbiter().Mode() == core.ModeCopied
	s.QueueSizes(c.sizes)
	for in := 0; in < c.n; in++ {
		want := c.perInResident[in]
		if copied {
			want = c.perInOutstanding[in]
		}
		if int64(c.sizes[in]) != want {
			c.violatef(slot, "I6", "input %d reports %d data cells, shadow expects %d",
				in, c.sizes[in], want)
		}
		for out := 0; out < c.n; out++ {
			q := &c.voq[in*c.n+out]
			if got := s.VOQLen(in, out); got != q.Len() {
				c.violatef(slot, "I6", "VOQ[%d][%d] length %d, shadow expects %d",
					in, out, got, q.Len())
				continue
			}
			wantTS := int64(math.MaxInt64) // empty-VOQ sentinel (see core.HOLTime)
			if q.Len() > 0 {
				wantTS = q.Front().ts
			}
			if got := s.HOLTime(in, out); got != wantTS {
				c.violatef(slot, "I4", "VOQ[%d][%d] HOL timestamp %d, shadow expects %d",
					in, out, got, wantTS)
			}
		}
	}
}

// verifyEvents drains the tracer and checks the slot's event stream
// against the arrivals and deliveries the checker saw first-hand (I7),
// and the grants against the requests (I8).
func (c *Checker) verifyEvents(slot int64) {
	c.tracer.Flush()
	type reqKey struct{ round, out int32 }
	var reqs map[reqKey]map[int32]int64
	type pair struct{ in, out int32 }
	var granted map[pair]int
	ai, di := 0, 0
	for _, e := range c.events {
		switch e.Type {
		case obs.EvArrival:
			if ai >= len(c.arrivals) {
				c.violatef(slot, "I7", "arrival event for packet %d with no matching Arrive", e.Packet)
				break
			}
			p := &c.arrivals[ai]
			if e.Packet != int64(p.ID) || int(e.In) != p.Input ||
				e.Slot != p.Arrival || int(e.Aux) != c.arrFanout[ai] {
				c.violatef(slot, "I7", "arrival event %d/in=%d/fanout=%d disagrees with packet %d/in=%d/fanout=%d",
					e.Packet, e.In, e.Aux, p.ID, p.Input, c.arrFanout[ai])
			}
			ai++
		case obs.EvDeparture:
			if di >= len(c.deliveries) {
				c.violatef(slot, "I7", "departure event for packet %d with no matching delivery", e.Packet)
				break
			}
			d := c.deliveries[di]
			last := d.Last
			if e.Packet != int64(d.ID) || int(e.In) != d.In || int(e.Out) != d.Out ||
				e.Slot != d.Slot || (c.prof.last != lastUnknown && (e.Aux == 1) != last) {
				c.violatef(slot, "I7", "departure event pkt=%d %d->%d disagrees with delivery pkt=%d %d->%d",
					e.Packet, e.In, e.Out, d.ID, d.In, d.Out)
			}
			di++
		case obs.EvRequest:
			if c.prof.grant == grantNone {
				break
			}
			if reqs == nil {
				reqs = make(map[reqKey]map[int32]int64)
			}
			k := reqKey{e.Round, e.Out}
			m := reqs[k]
			if m == nil {
				m = make(map[int32]int64)
				reqs[k] = m
			}
			m[e.In] = e.TS
		case obs.EvGrant:
			if c.prof.grant == grantNone {
				break
			}
			m := reqs[reqKey{e.Round, e.Out}]
			ts, ok := m[e.In]
			if !ok {
				c.violatef(slot, "I8", "output %d granted non-requester input %d in round %d",
					e.Out, e.In, e.Round)
			} else if c.prof.grant == grantMinTS {
				if e.TS != ts {
					c.violatef(slot, "I8", "grant (%d->%d) carries ts %d, request said %d",
						e.In, e.Out, e.TS, ts)
				}
				min := int64(math.MaxInt64)
				for _, t := range m {
					if t < min {
						min = t
					}
				}
				if e.TS != min {
					c.violatef(slot, "I8", "output %d round %d granted ts %d, minimum requested is %d",
						e.Out, e.Round, e.TS, min)
				}
			}
			if c.prof.pairsEq {
				if granted == nil {
					granted = make(map[pair]int)
				}
				granted[pair{e.In, e.Out}]++
			}
		}
	}
	if ai != len(c.arrivals) {
		c.violatef(slot, "I7", "%d arrivals emitted no arrival event", len(c.arrivals)-ai)
	}
	if di != len(c.deliveries) {
		c.violatef(slot, "I7", "%d deliveries emitted no departure event", len(c.deliveries)-di)
	}
	if c.prof.pairsEq {
		for _, d := range c.deliveries {
			granted[pair{int32(d.In), int32(d.Out)}]--
		}
		keys := make([]pair, 0, len(granted))
		for p, cnt := range granted {
			if cnt != 0 {
				keys = append(keys, p)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].in < keys[j].in || (keys[i].in == keys[j].in && keys[i].out < keys[j].out)
		})
		for _, p := range keys {
			if granted[p] > 0 {
				c.violatef(slot, "I7", "grant (%d->%d) produced no delivery", p.in, p.out)
			} else {
				c.violatef(slot, "I7", "delivery (%d->%d) had no surviving grant", p.in, p.out)
			}
		}
	}
	if c.outer != nil {
		for _, e := range c.events {
			c.outer.Emit(e)
		}
	}
	c.events = c.events[:0]
	c.arrivals = c.arrivals[:0]
	c.arrFanout = c.arrFanout[:0]
	c.deliveries = c.deliveries[:0]
}

// violatef records one violation, keeping at most MaxViolations.
func (c *Checker) violatef(slot int64, inv, format string, args ...any) {
	c.total++
	if len(c.violations) < c.opt.MaxViolations {
		c.violations = append(c.violations,
			Violation{Slot: slot, Invariant: inv, Msg: fmt.Sprintf(format, args...)})
	}
}

// Profile names the detected architecture profile, e.g. "core/fifoms".
func (c *Checker) Profile() string { return c.prof.name }

// Violations returns the recorded violations (at most MaxViolations).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the total number of violations observed.
func (c *Checker) Total() int { return c.total }

// Slots returns the number of slots checked so far: the slots stepped
// through this checker, which after a restore are fewer than the run's.
func (c *Checker) Slots() int64 { return c.slots }

// Err returns nil if the run was clean, or an *Error describing the
// violations.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return &Error{Violations: c.violations, Total: c.total}
}
