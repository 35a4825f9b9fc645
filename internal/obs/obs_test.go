package obs

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/destset"
)

func ev(slot int64, t EventType, in, out int32) Event {
	return Event{Slot: slot, Type: t, In: in, Out: out, Round: -1, TS: -1, Packet: -1}
}

func TestTracerOrderAndLen(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Emit(ev(int64(i), EvGrant, int32(i), 0))
	}
	if tr.Len() != 5 || tr.Cap() != 8 || tr.Dropped() != 0 {
		t.Fatalf("len=%d cap=%d dropped=%d, want 5/8/0", tr.Len(), tr.Cap(), tr.Dropped())
	}
	events := tr.Events()
	for i, e := range events {
		if e.Slot != int64(i) {
			t.Fatalf("event %d has slot %d, want %d", i, e.Slot, i)
		}
	}
}

func TestTracerFlightRecorderOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(ev(int64(i), EvRequest, 0, 0))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, e := range events {
		if want := int64(6 + i); e.Slot != want {
			t.Fatalf("event %d has slot %d, want %d (oldest first)", i, e.Slot, want)
		}
	}
}

func TestTracerStreaming(t *testing.T) {
	tr := NewTracer(4)
	var got []Event
	tr.OnFull(func(batch []Event) error {
		got = append(got, batch...)
		return nil
	})
	for i := 0; i < 11; i++ {
		tr.Emit(ev(int64(i), EvDeparture, 0, 0))
	}
	// 11 events through a 4-ring: two full flushes (at the 5th and 9th
	// emits) have hit the sink; three remain buffered.
	if len(got) != 8 || tr.Len() != 3 {
		t.Fatalf("flushed %d buffered %d, want 8 and 3", len(got), tr.Len())
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(got) != 11 || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after Flush: flushed %d buffered %d dropped %d, want 11/0/0", len(got), tr.Len(), tr.Dropped())
	}
	for i, e := range got {
		if e.Slot != int64(i) {
			t.Fatalf("flushed event %d has slot %d, want %d", i, e.Slot, i)
		}
	}
}

func TestTracerSinkErrorSticky(t *testing.T) {
	tr := NewTracer(2)
	boom := errors.New("sink full")
	calls := 0
	tr.OnFull(func([]Event) error {
		calls++
		return boom
	})
	for i := 0; i < 9; i++ {
		tr.Emit(ev(int64(i), EvArrival, 0, 0))
	}
	if err := tr.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("failing sink called %d times, want 1 (error is sticky)", calls)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Slot: 42, Type: EvFanoutSplit, In: 3, Out: -1, Round: 2, Aux: 5, TS: 40, Packet: 17}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if want := `"ev":"split"`; !strings.Contains(string(b), want) {
		t.Fatalf("encoded event %s lacks %s", b, want)
	}
	var out Event
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestEventTypeUnknown(t *testing.T) {
	var et EventType
	if err := et.UnmarshalJSON([]byte(`"warp"`)); err == nil {
		t.Fatal("unmarshal of unknown type succeeded")
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricGrants).Add(3)
	r.Counter(MetricRequests).Add(7)
	r.Gauge(OccHWM(1)).Max(12)
	r.Gauge(OccHWM(1)).Max(4) // high-water: must not regress
	r.Gauge("slot").Set(99)

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d metrics, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	want := map[string]int64{
		MetricGrants:   3,
		MetricRequests: 7,
		OccHWM(1):      12,
		"slot":         99,
	}
	for _, m := range snap {
		if m.Value != want[m.Name] {
			t.Fatalf("%s = %d, want %d", m.Name, m.Value, want[m.Name])
		}
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as both counter and gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestNilObserverFastPath(t *testing.T) {
	var o *Observer
	if o.TraceOn() || o.MetricsOn() {
		t.Fatal("nil observer reports enabled")
	}
	// A probe detached, or attached to nothing, is off and its methods
	// are no-ops, so no instrumentation site needs a second guard.
	for _, o := range []*Observer{nil, {}} {
		var p Probe
		p.Attach(o, 4)
		if p.On() {
			t.Fatalf("probe over %v reports on", o)
		}
		p.Arrival(&cell.Packet{Dests: destset.FromMembers(4, 1, 2)}, 2)
		p.EnqueueEach(&cell.Packet{Dests: destset.FromMembers(4, 1, 2)}, 2)
		p.Occupancy(3, 9)
		p.Request(0, 0, 1, 2, 0, 0)
		p.Grant(0, 0, 1, 2, 0, 0)
		p.Rounds(2)
		p.Departure(0, 1, 2, 0, 0, true)
		p.Split(0, 1, 1, 0, 0)
	}
	// Nil metric handles are safe no-ops.
	var c *Counter
	var g *Gauge
	c.Inc()
	c.Add(2)
	g.Max(5)
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metric handles accumulated state")
	}
}

// TestProbeCountsAndRegisters pins what a probe registers and when: the
// lifecycle counters and the occupancy gauges at Attach, the
// arbitration counters on first use; and that a metrics-only probe
// counts what a traced one emits.
func TestProbeCountsAndRegisters(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(64)
	var p Probe
	p.Attach(&Observer{Trace: tr, Metrics: reg}, 2)
	names := func() (out []string) {
		for _, m := range reg.Snapshot() {
			out = append(out, m.Name)
		}
		return out
	}
	want := []string{MetricArrivals, MetricDepartures, MetricEnqueues, OccHWM(0), OccHWM(1),
		MetricCompleted, MetricSplits}
	if got := names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registered at Attach: %v, want %v", got, want)
	}
	pkt := &cell.Packet{ID: 7, Input: 1, Arrival: 3, Dests: destset.FromMembers(2, 0, 1)}
	p.Arrival(pkt, 2)
	p.EnqueueEach(pkt, 2)
	p.Occupancy(1, 5)
	p.Request(4, 0, 1, 0, 3, -1)
	p.Grant(4, 0, 1, 0, 3, -1)
	p.Rounds(3)
	p.Departure(4, 1, 0, 3, 7, false)
	p.Split(4, 1, 1, 3, 7)
	want = []string{"active_slots_total", "arrivals_total", "departures_total", "enqueued_cells_total",
		"grants_total", "occ_hwm_port_00", "occ_hwm_port_01", "packets_completed_total",
		"requests_total", "rounds_total", "splits_total"}
	if got := names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registered after use: %v, want %v", got, want)
	}
	values := map[string]int64{}
	for _, m := range reg.Snapshot() {
		values[m.Name] = m.Value
	}
	if values[MetricEnqueues] != 2 || values[MetricRounds] != 3 || values[MetricActiveSlots] != 1 ||
		values[OccHWM(1)] != 5 || values[MetricCompleted] != 0 || values[MetricSplits] != 1 {
		t.Fatalf("counted %v", values)
	}
	var types []EventType
	for _, e := range tr.Events() {
		types = append(types, e.Type)
	}
	wantTypes := []EventType{EvArrival, EvEnqueue, EvEnqueue, EvRequest, EvGrant, EvDeparture, EvFanoutSplit}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Fatalf("emitted %v, want %v", types, wantTypes)
	}
}
