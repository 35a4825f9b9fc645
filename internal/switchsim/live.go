package switchsim

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/stats"
)

// LiveRunner drives a Switch one externally-clocked slot at a time —
// the tick-driven entry point behind voqd (DESIGN.md §13). Where
// Runner owns the whole measurement discipline of a finite simulation
// (traffic sources, warmup, instability ceiling), LiveRunner owns only
// what a live system needs from the engine layer:
//
//   - packet identity: dense PacketIDs in admission order, so delay
//     tracking and per-packet side tables index cheaply;
//   - the one-arrival-per-input-per-slot discipline of the shared
//     queue structure, enforced with an error instead of the core's
//     panic, because in a daemon a violating frame is input, not a bug;
//   - packet pooling through the switch's release hook, keeping the
//     steady-state slot path allocation-free exactly like Run's;
//   - running delivery accounting (copies, completed packets, a
//     Welford of per-copy delay in slots).
//
// A LiveRunner is not safe for concurrent use: Admit, Step and the
// accessors must all be called from one goroutine (voqd's slot loop).
type LiveRunner struct {
	sw Switch

	nextID    cell.PacketID
	lastAdmit []int64 // per input, last admitted slot, -1 initially

	freePkts []*cell.Packet

	admitted  int64 // packets admitted
	copies    int64 // address cells admitted (sum of fanouts)
	delivered int64 // copies delivered
	completed int64 // packets fully delivered
	delay     stats.Welford

	deliverFn func(cell.Delivery)
	userFn    func(cell.Delivery)

	sizes []int
}

// NewLive wraps sw for external slot-by-slot driving. The switch must
// be fresh (nothing arrived, no slot stepped).
func NewLive(sw Switch) *LiveRunner {
	n := sw.Ports()
	l := &LiveRunner{
		sw:        sw,
		lastAdmit: make([]int64, n),
		sizes:     make([]int, n),
	}
	for i := range l.lastAdmit {
		l.lastAdmit[i] = -1
	}
	if pr, ok := sw.(PacketReleaser); ok {
		pr.SetReleaseHook(l.putPacket)
	}
	l.deliverFn = l.handleDelivery
	return l
}

// Ports returns the switch size N.
func (l *LiveRunner) Ports() int { return l.sw.Ports() }

// Switch returns the wrapped switch.
func (l *LiveRunner) Switch() Switch { return l.sw }

// Borrow returns a pooled packet whose Dests set exists (universe N)
// but holds arbitrary stale content; the caller must overwrite it
// completely, then either Admit the packet or Return it.
func (l *LiveRunner) Borrow() *cell.Packet {
	if k := len(l.freePkts) - 1; k >= 0 {
		p := l.freePkts[k]
		l.freePkts = l.freePkts[:k]
		return p
	}
	return &cell.Packet{Dests: destset.New(l.sw.Ports())}
}

func (l *LiveRunner) putPacket(p *cell.Packet) { l.freePkts = append(l.freePkts, p) }

// Admit enqueues p — with Dests already filled — as the arrival of
// `input` in `slot`, assigning its ID and arrival stamp. It returns
// the assigned ID, or an error (and reclaims p into the pool) when the
// arrival would violate the queue structure's admission discipline:
// at most one packet per input per slot, slots non-decreasing.
func (l *LiveRunner) Admit(p *cell.Packet, input int, slot int64) (cell.PacketID, error) {
	n := l.sw.Ports()
	if input < 0 || input >= n {
		l.putPacket(p)
		return cell.NoPacket, fmt.Errorf("switchsim: admit at input %d of an %d-port switch", input, n)
	}
	if p.Dests.Universe() != n || p.Dests.Empty() {
		l.putPacket(p)
		return cell.NoPacket, fmt.Errorf("switchsim: admit with destination universe %d (fanout %d) on an %d-port switch",
			p.Dests.Universe(), p.Dests.Count(), n)
	}
	if slot <= l.lastAdmit[input] {
		l.putPacket(p)
		return cell.NoPacket, fmt.Errorf("switchsim: second admission at input %d for slot %d (last %d); the shared queue structure takes one arrival per input per slot",
			input, slot, l.lastAdmit[input])
	}
	l.lastAdmit[input] = slot
	l.nextID++
	p.ID, p.Input, p.Arrival = l.nextID, input, slot
	l.admitted++
	l.copies += int64(p.Fanout())
	l.sw.Arrive(p)
	return p.ID, nil
}

// Step runs one slot of scheduling and transfer. deliver (optional)
// observes every delivered copy after the runner's own accounting.
// Slots must be stepped in increasing order, matching the slots passed
// to Admit.
func (l *LiveRunner) Step(slot int64, deliver func(cell.Delivery)) {
	l.userFn = deliver
	l.sw.Step(slot, l.deliverFn)
}

// handleDelivery is the persistent Step callback: per-copy accounting
// from the Arrival stamp and Done flag every architecture sets.
func (l *LiveRunner) handleDelivery(d cell.Delivery) {
	l.delivered++
	if d.Done {
		l.completed++
	}
	l.delay.Add(float64(d.CopyDelay()))
	if l.userFn != nil {
		l.userFn(d)
	}
}

// Admitted returns the number of packets admitted so far.
func (l *LiveRunner) Admitted() int64 { return l.admitted }

// AdmittedCopies returns the total fanout admitted so far.
func (l *LiveRunner) AdmittedCopies() int64 { return l.copies }

// Delivered returns the number of copies delivered so far.
func (l *LiveRunner) Delivered() int64 { return l.delivered }

// Completed returns the number of packets fully delivered so far.
func (l *LiveRunner) Completed() int64 { return l.completed }

// CopyDelay returns the running per-copy delay statistics in slots
// (delay 1 = delivered in the arrival slot).
func (l *LiveRunner) CopyDelay() Summary { return summarize(&l.delay) }

// BufferedCells returns the switch backlog in data cells.
func (l *LiveRunner) BufferedCells() int64 { return l.sw.BufferedCells() }

// QueueSizes fills dst (length N) with the per-input queue sizes; the
// daemon's overload policy reads it every slot.
func (l *LiveRunner) QueueSizes(dst []int) []int { return l.sw.QueueSizes(dst) }

// Sizes returns the runner's scratch per-port size slice, filled.
func (l *LiveRunner) Sizes() []int { return l.sw.QueueSizes(l.sizes) }

// Instrument attaches the observability layer to the underlying
// switch, reporting false when the architecture does not support it.
// Attach before the first Admit.
func (l *LiveRunner) Instrument(o *obs.Observer) bool {
	ob, ok := l.sw.(Observable)
	if !ok {
		return false
	}
	ob.SetObserver(o)
	return true
}

// SaveState implements snap.Stater: the runner's admission and
// delivery accounting, then the switch (buffered cells, arbiter
// state). Borrowed-but-unadmitted packets and the pool are scratch
// and are not serialized.
func (l *LiveRunner) SaveState(w *snap.Writer) {
	w.Begin("live")
	w.I64(int64(l.nextID))
	w.I64s(l.lastAdmit)
	w.I64(l.admitted)
	w.I64(l.copies)
	w.I64(l.delivered)
	w.I64(l.completed)
	l.delay.SaveState(w)
	w.End()
	l.sw.SaveState(w)
}

// LoadState implements snap.Stater; the runner must be freshly built
// around a fresh switch of the same configuration.
func (l *LiveRunner) LoadState(r *snap.Reader) error {
	if l.sw.BufferedCells() != 0 || l.nextID != 0 {
		return fmt.Errorf("switchsim: LoadState needs a freshly built LiveRunner")
	}
	if err := r.Section("live"); err != nil {
		return err
	}
	l.nextID = cell.PacketID(r.I64())
	last := r.I64s()
	l.admitted = r.I64()
	l.copies = r.I64()
	l.delivered = r.I64()
	l.completed = r.I64()
	if r.Err() == nil {
		if len(last) != len(l.lastAdmit) {
			r.Failf("live runner has %d admission stamps, want %d", len(last), len(l.lastAdmit))
		} else if l.nextID < 0 || l.admitted < 0 || l.copies < 0 || l.delivered < 0 || l.completed < 0 {
			r.Failf("negative live runner counter")
		} else {
			copy(l.lastAdmit, last)
		}
	}
	if err := l.delay.LoadState(r); err != nil {
		return err
	}
	if err := r.EndSection(); err != nil {
		return err
	}
	return l.sw.LoadState(r)
}
