// Package obs is the simulator's slot-level observability layer: a
// ring-buffered event tracer and a counters/gauges metrics registry,
// threaded through the switch architectures so that every scheduling
// decision — request, grant, departure, fanout split — can be seen,
// exported and explained, not just aggregated at the end of a run.
//
// The layer is built around one invariant: when observability is off it
// must cost nothing measurable. Every switch holds a Probe (probe.go)
// that is off in ordinary runs; every instrumentation site is guarded
// by one predictable Probe.On test, so the tier-1 benchmarks see the
// disabled fast path: no allocation, no map lookup, one never-taken
// branch. DESIGN.md §8 records the taxonomy and the overhead budget.
//
// The two halves are independent:
//
//   - Tracer records a stream of fixed-size Events in a ring buffer.
//     With a flush callback attached (OnFull) it streams batches to a
//     sink — cmd/voqsim writes JSONL via internal/report; without one
//     it degrades to a flight recorder that overwrites the oldest
//     events and counts what it dropped.
//   - Registry holds named monotonic Counters and high-water Gauges
//     that are snapshotable mid-run, which is what voqsim's
//     -metrics-every flag exposes.
package obs

import (
	"encoding/json"
	"fmt"
)

// EventType classifies one slot-level event. The taxonomy follows the
// life of a packet through the switch: it arrives, its address cells
// are enqueued, the arbiter exchanges requests and grants over
// possibly several rounds, cells depart across the crossbar, and a
// multicast packet whose destinations could not all be served in one
// slot records a fanout split.
type EventType uint8

const (
	// EvArrival: a packet entered an input port (Aux = fanout).
	EvArrival EventType = iota
	// EvEnqueue: one address cell (or queue entry) joined VOQ(In,Out).
	EvEnqueue
	// EvRequest: input In asked output Out for a grant in round Round;
	// TS is the HOL time stamp backing the request (-1 for schedulers
	// that do not arbitrate on time stamps).
	EvRequest
	// EvGrant: output Out granted input In in round Round; TS is the
	// granted cell's time stamp.
	EvGrant
	// EvDeparture: one cell crossed the fabric from In to Out (Aux = 1
	// when this delivery exhausted the packet's fanout).
	EvDeparture
	// EvFanoutSplit: input In served only part of packet Packet's
	// remaining destinations this slot (Aux = destinations still
	// unserved). Splits only happen under output contention — their
	// rate is the paper's "fanout splitting only when necessary" claim
	// made measurable.
	EvFanoutSplit
	// EvDrop: a cell was discarded. Single-stage architectures have
	// infinite buffers (instability is detected by the engine's backlog
	// ceiling instead) and never emit it; the multi-stage fabric's
	// bounded inter-stage links do (In = fabric ingress, Out = the leaf
	// destination lost, Aux = links crossed before the drop).
	EvDrop
	// EvHop: a multi-stage fabric admitted one buffered copy from an
	// inter-stage link into the next switch (In = fabric ingress,
	// Out = the node the copy entered, Aux = links crossed so far).
	EvHop

	numEventTypes = iota
)

// eventNames are the wire names used in JSONL traces and timelines.
var eventNames = [numEventTypes]string{
	EvArrival:     "arrival",
	EvEnqueue:     "enqueue",
	EvRequest:     "request",
	EvGrant:       "grant",
	EvDeparture:   "departure",
	EvFanoutSplit: "split",
	EvDrop:        "drop",
	EvHop:         "hop",
}

// String returns the event type's wire name.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("eventtype(%d)", int(t))
}

// MarshalJSON encodes the type as its wire name.
func (t EventType) MarshalJSON() ([]byte, error) {
	if int(t) >= len(eventNames) {
		return nil, fmt.Errorf("obs: unknown event type %d", int(t))
	}
	return json.Marshal(t.String())
}

// UnmarshalJSON decodes a wire name back into the type.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventNames {
		if name == s {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", s)
}

// Event is one slot-level observation. It is a fixed-size value so the
// ring buffer is a flat slice with no per-event allocation. Fields
// that do not apply to a given type carry -1 (In/Out/Round/TS/Packet)
// or 0 (Aux); the JSON field names are the stable wire format that
// internal/report exports and cmd/voqtrace consumes.
type Event struct {
	Slot   int64     `json:"slot"`
	Type   EventType `json:"ev"`
	In     int32     `json:"in"`
	Out    int32     `json:"out"`
	Round  int32     `json:"round"`
	Aux    int32     `json:"aux"`
	TS     int64     `json:"ts"`
	Packet int64     `json:"pkt"`
}

// String renders the event for logs and timelines.
func (e Event) String() string {
	return fmt.Sprintf("slot=%d %s in=%d out=%d round=%d ts=%d pkt=%d aux=%d",
		e.Slot, e.Type, e.In, e.Out, e.Round, e.TS, e.Packet, e.Aux)
}

// Observer bundles the two observability halves; either may be nil.
// A switch binds one with SetObserver, which attaches its Probe.
type Observer struct {
	Trace   *Tracer
	Metrics *Registry
}

// TraceOn reports whether events should be emitted.
func (o *Observer) TraceOn() bool { return o != nil && o.Trace != nil }

// MetricsOn reports whether metrics should be maintained.
func (o *Observer) MetricsOn() bool { return o != nil && o.Metrics != nil }
