package obs

import "voqsim/internal/cell"

// Probe is a switch's binding to an Observer: the tracer and registry,
// the metric handles cached when the observer is attached, and one
// method per event type. Every architecture holds one by value. A
// detached Probe — the zero value — is off, and each method of an off
// probe is a no-op, so an instrumentation site is one never-taken On
// branch in ordinary runs.
//
// The counters every architecture keeps (arrivals, enqueues,
// departures, completions, splits) and the per-port occupancy gauges
// are registered at Attach. The arbitration counters (requests,
// grants, rounds, active slots) and the fabric's hop and drop counters
// are registered on first use, so a switch that reports none of them
// registers none.
type Probe struct {
	on    bool
	trace *Tracer
	reg   *Registry

	arrivals, enqueues, departures, completed, splits *Counter
	requests, grants, rounds, active, hops, drops     *Counter
	occ                                               []*Gauge
}

// Attach binds o, or detaches the probe with nil. ports is the number
// of per-port occupancy gauges to register (none for 0). Call it before
// the run starts: counters assume they saw every slot.
func (p *Probe) Attach(o *Observer, ports int) {
	*p = Probe{}
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		return
	}
	p.on, p.trace, p.reg = true, o.Trace, o.Metrics
	if p.reg == nil {
		return
	}
	p.arrivals = p.reg.Counter(MetricArrivals)
	p.enqueues = p.reg.Counter(MetricEnqueues)
	p.departures = p.reg.Counter(MetricDepartures)
	p.completed = p.reg.Counter(MetricCompleted)
	p.splits = p.reg.Counter(MetricSplits)
	for i := 0; i < ports; i++ {
		p.occ = append(p.occ, p.reg.Gauge(OccHWM(i)))
	}
}

// On reports whether an observer is attached.
func (p *Probe) On() bool { return p.on }

// emit records one event when tracing is on.
func (p *Probe) emit(slot int64, t EventType, in, out, round, aux int, ts, id int64) {
	if p.trace != nil {
		p.trace.Emit(Event{Slot: slot, Type: t, In: int32(in), Out: int32(out),
			Round: int32(round), Aux: int32(aux), TS: ts, Packet: id})
	}
}

// count adds d to the counter *c, registering it as name on first use.
func (p *Probe) count(c **Counter, name string, d int64) {
	if p.reg == nil {
		return
	}
	if *c == nil {
		*c = p.reg.Counter(name)
	}
	(*c).v += d
}

// Arrival records packet pkt entering its input with fanout
// destinations.
func (p *Probe) Arrival(pkt *cell.Packet, fanout int) {
	p.emit(pkt.Arrival, EvArrival, pkt.Input, -1, -1, fanout, pkt.Arrival, int64(pkt.ID))
	p.arrivals.Inc()
}

// Enqueue records one queue entry for pkt at its input: the queue for
// output out, or the input's single FIFO when out is -1.
func (p *Probe) Enqueue(pkt *cell.Packet, out int) {
	p.emit(pkt.Arrival, EvEnqueue, pkt.Input, out, -1, 0, pkt.Arrival, int64(pkt.ID))
	p.enqueues.Inc()
}

// EnqueueEach records one entry per destination of pkt, fanout in all,
// as Enqueue does for each; a metrics-only observer pays one add.
func (p *Probe) EnqueueEach(pkt *cell.Packet, fanout int) {
	if p.trace != nil {
		pkt.Dests.ForEach(func(out int) {
			p.emit(pkt.Arrival, EvEnqueue, pkt.Input, out, -1, 0, pkt.Arrival, int64(pkt.ID))
		})
	}
	p.enqueues.Add(int64(fanout))
}

// Occupancy raises port's high-water gauge to n buffered payloads.
func (p *Probe) Occupancy(port, n int) {
	if p.occ != nil {
		p.occ[port].Max(int64(n))
	}
}

// Request records input in asking output out for a grant in round;
// ts is the stamp backing the request (-1 for a scheduler that weighs
// none) and id the requesting packet (-1 when requests are per queue).
func (p *Probe) Request(slot int64, round, in, out int, ts, id int64) {
	p.emit(slot, EvRequest, in, out, round, 0, ts, id)
	p.count(&p.requests, MetricRequests, 1)
}

// Grant records output out granting input in in round; ts and id are
// as for Request.
func (p *Probe) Grant(slot int64, round, in, out int, ts, id int64) {
	p.emit(slot, EvGrant, in, out, round, 0, ts, id)
	p.count(&p.grants, MetricGrants, 1)
}

// Rounds records one slot in which the arbiter had a queued cell to
// consider, and the n rounds it ran.
func (p *Probe) Rounds(n int) {
	p.count(&p.active, MetricActiveSlots, 1)
	p.count(&p.rounds, MetricRounds, int64(n))
}

// Departure records one copy of packet id, stamped ts, leaving input in
// for output out; last says it exhausted the packet's fanout.
func (p *Probe) Departure(slot int64, in, out int, ts, id int64, last bool) {
	aux := 0
	if last {
		aux = 1
		p.completed.Inc()
	}
	p.emit(slot, EvDeparture, in, out, -1, aux, ts, id)
	p.departures.Inc()
}

// Split records input in serving only part of packet id's fanout this
// slot, remaining destinations still owed.
func (p *Probe) Split(slot int64, in, remaining int, ts, id int64) {
	p.emit(slot, EvFanoutSplit, in, -1, -1, remaining, ts, id)
	p.splits.Inc()
}

// Hop records a fabric copy of packet id, from ingress in, entering
// node after crossing hops links.
func (p *Probe) Hop(slot int64, in, node, hops int, ts, id int64) {
	p.emit(slot, EvHop, in, node, -1, hops, ts, id)
	p.count(&p.hops, MetricHops, 1)
}

// Drop records the loss of packet id's copy, from ingress in, for leaf
// after hops links.
func (p *Probe) Drop(slot int64, in, leaf, hops int, ts, id int64) {
	p.emit(slot, EvDrop, in, leaf, -1, hops, ts, id)
	p.count(&p.drops, MetricDrops, 1)
}
