// Package cioq implements a combined input-output queued (CIOQ)
// switch: a multicast VOQ input stage scheduled by any core.Arbiter,
// a fabric running at speedup S, and FIFO output queues draining one
// cell per slot to the line.
//
// CIOQ is the architecture spectrum between the paper's two poles: at
// S = 1 the output queues never build up and the switch behaves like
// the pure input-queued design; at S = N every backlogged cell crosses
// immediately and the switch degenerates to output queueing. The
// classic result that a speedup of 2 lets a CIOQ switch emulate an OQ
// switch motivates the extension experiment this package backs: how
// much speedup FIFOMS needs before its delay curve sits on OQFIFO's.
//
// Within one slot the input stage runs S scheduling-and-transfer
// phases. Each phase is a full arbitration over the current VOQ state,
// so an input may send (and an output may receive into its queue) up
// to S cells per slot; the output line still transmits exactly one
// cell per slot, which is where queueing reappears.
package cioq

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/obs"
	"voqsim/internal/oq"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// Switch is the CIOQ switch: a core input stage feeding an OQFIFO
// output stage. It satisfies the simulation engine's Switch interface.
type Switch struct {
	inner   *core.Switch
	out     *oq.Switch
	speedup int
	name    string
	enqueue func(cell.Delivery) // out.Push, the input stage's delivery sink, built once

	// Observability: probe reports arrivals and splits, the output
	// stage's own probe the departures; stage is the input stage's
	// private event ring, nil when unobserved.
	probe obs.Probe
	stage *obs.Tracer
}

// New returns an n x n CIOQ switch with the given fabric speedup,
// scheduling its input stage with arb. root seeds the arbiter's
// randomness.
func New(n, speedup int, arb core.Arbiter, root *xrand.Rand) *Switch {
	if speedup < 1 {
		panic(fmt.Sprintf("cioq: speedup %d < 1", speedup))
	}
	if speedup > n {
		speedup = n // more phases than outputs cannot transfer more
	}
	out := oq.New(n)
	return &Switch{
		inner:   core.NewSwitch(n, arb, root),
		out:     out,
		speedup: speedup,
		name:    fmt.Sprintf("cioq-s%d-%s", speedup, arb.Name()),
		enqueue: out.Push,
	}
}

// Ports returns the switch size N.
func (s *Switch) Ports() int { return s.inner.Ports() }

// Name identifies the configuration in reports, e.g. "cioq-s2-fifoms".
func (s *Switch) Name() string { return s.name }

// SetObserver attaches (or detaches, with nil) the observability layer
// at the switch's boundary: arrivals and their address cells at the
// input stage, departures on the output lines. Crossings into the
// output queues are internal, so the input stage traces into a private
// ring from which only its fanout splits are relayed, in order, before
// the slot's line departures.
func (s *Switch) SetObserver(o *obs.Observer) {
	s.probe.Attach(o, s.Ports())
	s.out.SetObserver(o)
	s.stage = nil
	var stage *obs.Observer
	if s.probe.On() {
		s.stage = obs.NewTracer(256)
		s.stage.OnFull(s.relaySplits)
		stage = &obs.Observer{Trace: s.stage}
	}
	s.inner.SetObserver(stage)
}

// relaySplits reports the input stage's fanout splits among batch.
func (s *Switch) relaySplits(batch []obs.Event) error {
	for _, e := range batch {
		if e.Type == obs.EvFanoutSplit {
			s.probe.Split(e.Slot, int(e.In), int(e.Aux), e.TS, e.Packet)
		}
	}
	return nil
}

// Arrive enqueues a packet at the input stage.
func (s *Switch) Arrive(p *cell.Packet) {
	s.inner.Arrive(p)
	if s.probe.On() {
		fanout := p.Fanout()
		s.probe.Arrival(p, fanout)
		s.probe.EnqueueEach(p, fanout)
		s.probe.Occupancy(p.Input, s.inner.InputBacklog(p.Input))
	}
}

// Step runs one slot: S input-stage phases moving cells into the
// output queues, then one line transmission per output.
func (s *Switch) Step(slot int64, deliver func(cell.Delivery)) {
	for phase := 0; phase < s.speedup; phase++ {
		s.inner.Step(slot, s.enqueue)
	}
	if s.stage != nil {
		s.stage.Flush() // relays the phases' last splits; relaySplits never fails
	}
	s.out.Step(slot, deliver)
}

// SetReleaseHook forwards to the input stage: an output-queue entry
// keeps only the copy's ID, input and arrival, so a packet may be
// recycled as soon as its last copy has crossed the fabric, before the
// output lines have sent every copy.
func (s *Switch) SetReleaseHook(fn func(*cell.Packet)) { s.inner.SetReleaseHook(fn) }

// LastRounds reports the input stage's most recent arbitration rounds
// (of the final phase), so the engine can track convergence.
func (s *Switch) LastRounds() int { return s.inner.LastRounds() }

// QueueSizes reports the per-input data-cell occupancy of the input
// stage — the buffer the architecture is trying to keep small; output
// queue depth is available via OutputQueueSizes.
func (s *Switch) QueueSizes(dst []int) []int { return s.inner.QueueSizes(dst) }

// InputBacklog returns QueueSizes' value for one input.
func (s *Switch) InputBacklog(in int) int { return s.inner.InputBacklog(in) }

// OutputQueueSizes fills dst with the per-output queue depths.
func (s *Switch) OutputQueueSizes(dst []int) []int { return s.out.QueueSizes(dst) }

// BufferedCells counts cells anywhere in the switch (input data cells
// plus output-queue copies), the backlog signal for instability
// detection.
func (s *Switch) BufferedCells() int64 { return s.inner.BufferedCells() + s.out.BufferedCells() }

// BufferedBytes returns the buffer memory in use across both stages:
// the input stage's shared-cell accounting plus one payload copy per
// output-queue entry.
func (s *Switch) BufferedBytes() int64 { return s.inner.BufferedBytes() + s.out.BufferedBytes() }

// ForEachCopy calls fn for every buffered copy: the input stage's,
// then the output stage's.
func (s *Switch) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	s.inner.ForEachCopy(fn)
	s.out.ForEachCopy(fn)
}

// SaveState appends the input stage's "core" section, then the output
// stage's "oq" section.
func (s *Switch) SaveState(w *snap.Writer) {
	s.inner.SaveState(w)
	s.out.SaveState(w)
}

// LoadState restores state written by SaveState into a fresh switch of
// the same size, speedup and arbiter.
func (s *Switch) LoadState(r *snap.Reader) error {
	if err := s.inner.LoadState(r); err != nil {
		return err
	}
	return s.out.LoadState(r)
}
