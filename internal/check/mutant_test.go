package check

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func reqEvent(in, out, round int32, ts int64) obs.Event {
	return obs.Event{Type: obs.EvRequest, In: in, Out: out, Round: round, TS: ts, Packet: -1}
}

func grantEvent(in, out, round int32, ts int64) obs.Event {
	return obs.Event{Type: obs.EvGrant, In: in, Out: out, Round: round, TS: ts, Packet: -1}
}

// tamper is a fault-injection shim: it forwards everything to the real
// switch but rewrites the delivery stream through fn, simulating a
// broken transfer stage. CheckUnwrap exposes the real switch so the
// checker still applies the full core profile (a tampering bug must
// not demote the rules that would catch it).
type tamper struct {
	inner Switch
	fn    func(d cell.Delivery, emit func(cell.Delivery))
}

func (t *tamper) Ports() int                  { return t.inner.Ports() }
func (t *tamper) Arrive(p *cell.Packet)       { t.inner.Arrive(p) }
func (t *tamper) QueueSizes(dst []int) []int  { return t.inner.QueueSizes(dst) }
func (t *tamper) BufferedCells() int64        { return t.inner.BufferedCells() }
func (t *tamper) CheckUnwrap() Switch         { return t.inner }
func (t *tamper) SaveState(w *snap.Writer)    { t.inner.SaveState(w) }
func (t *tamper) SetObserver(o *obs.Observer) { t.inner.SetObserver(o) }
func (t *tamper) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	t.inner.ForEachCopy(fn)
}
func (t *tamper) LoadState(r *snap.Reader) error {
	return t.inner.LoadState(r)
}
func (t *tamper) Step(slot int64, deliver func(cell.Delivery)) {
	t.inner.Step(slot, func(d cell.Delivery) { t.fn(d, deliver) })
}

// hasInvariant reports whether the checker recorded a violation of the
// given catalogue entry.
func hasInvariant(ck *Checker, inv string) bool {
	for _, v := range ck.Violations() {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

// TestMutantsCaught injects one classic scheduler bug per case into an
// otherwise-correct FIFOMS switch and asserts the checker convicts it
// under the intended invariant. These are the harness's negative
// controls: if a mutant ever passes, the checker has gone blind. Every
// mutant runs under the exact traffic sources and under the fast
// samplers: the checker sees arrivals and deliveries, never the
// sampler, so a checked fast run convicts the same bugs.
func TestMutantsCaught(t *testing.T) {
	const n, slots, seed = 8, 200, 5
	cases := []struct {
		name      string
		invariant string
		fn        func(d cell.Delivery, emit func(cell.Delivery))
	}{
		{
			// The ISSUE's canonical mutant: the transfer stage forgets
			// to decrement the fanout counter, so no copy is ever the
			// last and the data cell leaks.
			name:      "skip-fanout-decrement",
			invariant: "I5",
			fn: func(d cell.Delivery, emit func(cell.Delivery)) {
				d.Last = false
				emit(d)
			},
		},
		{
			name:      "duplicate-delivery",
			invariant: "I1",
			fn: func(d cell.Delivery, emit func(cell.Delivery)) {
				emit(d)
				emit(d)
			},
		},
		{
			name:      "misroute-to-next-output",
			invariant: "I3",
			fn: func(d cell.Delivery, emit func(cell.Delivery)) {
				d.Out = (d.Out + 1) % n
				emit(d)
			},
		},
		{
			// The crossbar "loses" every last copy: cells leave the
			// switch's buffers without a matching delivery record.
			name:      "drop-last-copy",
			invariant: "I6",
			fn: func(d cell.Delivery, emit func(cell.Delivery)) {
				if !d.Last {
					emit(d)
				}
			},
		},
	}
	exact, err := traffic.BernoulliAtLoad(0.7, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	samplers := map[string]traffic.Pattern{"exact": exact, "fast": traffic.Fast(exact)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for sampler, pat := range samplers {
				t.Run(sampler, func(t *testing.T) {
					root := xrand.New(seed)
					sw := &tamper{
						inner: core.NewSwitch(n, &core.FIFOMS{}, root.Split("switch", 0)),
						fn:    tc.fn,
					}
					ck, _ := drivePattern(sw, pat, n, slots, seed, Options{})
					if ck.Total() == 0 {
						t.Fatalf("mutant %s passed the checker", tc.name)
					}
					if !hasInvariant(ck, tc.invariant) {
						t.Fatalf("mutant %s convicted, but not under %s: %v",
							tc.name, tc.invariant, ck.Violations())
					}
					if got := ck.Profile(); got != "core/fifoms" {
						t.Fatalf("tamper wrapper demoted the profile to %q", got)
					}
				})
			}
		})
	}
}

// TestGrantRuleViolations unit-tests the I8 event checks by feeding a
// hand-crafted arbitration transcript: a grant to a non-requester and
// a grant that ignores an older (smaller-timestamp) request must both
// be convicted.
func TestGrantRuleViolations(t *testing.T) {
	root := xrand.New(1)
	ck := Wrap(core.NewSwitch(4, &core.FIFOMS{}, root.Split("switch", 0)), Options{})
	if ck.tracer == nil {
		t.Fatal("expected an observer on a core switch")
	}
	req := func(in, out, round int32, ts int64) {
		ck.events = append(ck.events, reqEvent(in, out, round, ts))
	}
	grant := func(in, out, round int32, ts int64) {
		ck.events = append(ck.events, grantEvent(in, out, round, ts))
	}
	// Round 0, output 0: inputs 1 (ts 5) and 2 (ts 3) request; the
	// grant goes to input 1 — not the minimum timestamp.
	req(1, 0, 0, 5)
	req(2, 0, 0, 3)
	grant(1, 0, 0, 5)
	// Round 0, output 1: input 3 never requested but is granted.
	req(1, 1, 0, 5)
	grant(3, 1, 0, 4)
	ck.prof.pairsEq = false // no deliveries to pair in this synthetic slot
	ck.verifyEvents(0)
	if got := ck.Total(); got != 2 {
		t.Fatalf("expected 2 I8 violations, got %d: %v", got, ck.Violations())
	}
	if !hasInvariant(ck, "I8") {
		t.Fatalf("violations not filed under I8: %v", ck.Violations())
	}
}

// TestMaxViolationsCap pins that a pathologically broken run records
// at most MaxViolations verbatim while still counting the rest.
func TestMaxViolationsCap(t *testing.T) {
	root := xrand.New(9)
	sw := &tamper{
		inner: core.NewSwitch(4, &core.FIFOMS{}, root.Split("switch", 0)),
		fn:    func(d cell.Delivery, emit func(cell.Delivery)) {}, // drop everything
	}
	ck, _ := drive(t, sw, 4, 200, 9, Options{MaxViolations: 5})
	if len(ck.Violations()) != 5 {
		t.Fatalf("recorded %d violations, want cap of 5", len(ck.Violations()))
	}
	if ck.Total() <= 5 {
		t.Fatalf("total %d should exceed the cap", ck.Total())
	}
}
