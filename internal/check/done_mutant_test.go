package check_test

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/roster"
	"voqsim/internal/snap"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// doneTamper forwards everything to a real switch but rewrites its
// delivery stream through fn, which sees how many copies of the packet
// came before. CheckUnwrap exposes the real switch, so the checker
// keeps the architecture's full profile.
type doneTamper struct {
	inner check.Switch
	seen  map[cell.PacketID]int32
	fn    func(d cell.Delivery, before int32, emit func(cell.Delivery))
}

func (t *doneTamper) Ports() int                     { return t.inner.Ports() }
func (t *doneTamper) Arrive(p *cell.Packet)          { t.inner.Arrive(p) }
func (t *doneTamper) QueueSizes(dst []int) []int     { return t.inner.QueueSizes(dst) }
func (t *doneTamper) BufferedCells() int64           { return t.inner.BufferedCells() }
func (t *doneTamper) CheckUnwrap() check.Switch      { return t.inner }
func (t *doneTamper) SaveState(w *snap.Writer)       { t.inner.SaveState(w) }
func (t *doneTamper) LoadState(r *snap.Reader) error { return t.inner.LoadState(r) }
func (t *doneTamper) SetObserver(o *obs.Observer)    { t.inner.SetObserver(o) }
func (t *doneTamper) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	t.inner.ForEachCopy(fn)
}
func (t *doneTamper) Step(slot int64, deliver func(cell.Delivery)) {
	t.inner.Step(slot, func(d cell.Delivery) {
		before := t.seen[d.ID]
		t.seen[d.ID]++
		t.fn(d, before, deliver)
	})
}

func hasViolation(ck *check.Checker, invariant string) bool {
	for _, v := range ck.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// doneMutants are the completion bugs a delay tracker without
// per-packet state would count without noticing. Each names the check
// that convicts it.
var doneMutants = []struct {
	name, invariant string
	fn              func(d cell.Delivery, before int32, emit func(cell.Delivery))
}{
	{
		// The packet completes one copy early: its input-oriented
		// delay would be short by the wait of its final copy.
		name: "done-one-copy-early", invariant: "I5",
		fn: func(d cell.Delivery, before int32, emit func(cell.Delivery)) {
			if d.Fanout >= 2 && before == d.Fanout-2 {
				d.Done = true
			}
			emit(d)
		},
	},
	{
		// A copy leaves twice: the second is no longer owed.
		name: "deliver-twice", invariant: "I3",
		fn: func(d cell.Delivery, _ int32, emit func(cell.Delivery)) {
			emit(d)
			emit(d)
		},
	},
	{
		// The packet never completes: it would vanish from the
		// input-oriented series.
		name: "drop-done", invariant: "I5",
		fn: func(d cell.Delivery, _ int32, emit func(cell.Delivery)) {
			d.Done = false
			emit(d)
		},
	},
}

// TestDoneMutantsCaught injects each completion mutant into every
// roster architecture and requires the checker to convict it under the
// named invariant: Done is asserted in every profile.
func TestDoneMutantsCaught(t *testing.T) {
	const n, slots, seed = 8, 300, 7
	pat, err := traffic.BernoulliAtLoad(0.7, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range roster.For(roster.CheckerDoneMutants) {
		for _, m := range doneMutants {
			t.Run(algo.Name+"/"+m.name, func(t *testing.T) {
				sw := &doneTamper{inner: algo.New(n, xrand.New(seed).Split("switch", 0)),
					seen: map[cell.PacketID]int32{}, fn: m.fn}
				ck := check.Wrap(sw, check.Options{})
				deliveries(ck, pat, seed, slots)
				if !hasViolation(ck, m.invariant) {
					t.Fatalf("mutant %s not convicted under %s: %v", m.name, m.invariant, ck.Violations())
				}
			})
		}
	}
}

// TestDoneAfterDropCaught: a fabric packet that lost a copy to a full
// link never completes. A transfer stage that marks its final surviving
// copy Done anyway is convicted under I5; the unmutated lossy run is
// clean.
func TestDoneAfterDropCaught(t *testing.T) {
	top, err := fabric.ParseSpec("fattree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	alg, err := experiment.WithTopology(experiment.FIFOMS, top, fabric.Config{LinkCapacity: 1, MaxInputCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := top.Ingress()
	pat := traffic.Bernoulli{P: 0.8, B: 0.12}
	for _, mutate := range []bool{false, true} {
		sw := &doneTamper{inner: alg.New(n, xrand.New(5).Split("switch", 0)), seen: map[cell.PacketID]int32{},
			fn: func(d cell.Delivery, _ int32, emit func(cell.Delivery)) {
				if mutate {
					d.Done = d.Last
				}
				emit(d)
			}}
		ck := check.Wrap(sw, check.Options{})
		deliveries(ck, pat, 5, 400)
		if st := ck.FabricStats(); st == nil || st.DroppedCopies == 0 {
			t.Fatal("the lossy fabric dropped nothing")
		}
		switch {
		case !mutate && ck.Err() != nil:
			t.Fatalf("clean lossy run flagged: %v", ck.Err())
		case mutate && !hasViolation(ck, "I5"):
			t.Fatalf("Done after a drop not convicted under I5: %v", ck.Violations())
		}
	}
}

// TestDuplicateArrivalCaught: a packet ID admitted twice is convicted
// under I3.
func TestDuplicateArrivalCaught(t *testing.T) {
	ck := check.Wrap(core.NewSwitch(4, &core.FIFOMS{}, xrand.New(1)), check.Options{})
	for in := 0; in < 2; in++ {
		ck.Arrive(&cell.Packet{ID: 1, Input: in, Arrival: 0, Dests: destset.FromMembers(4, in)})
	}
	if !hasViolation(ck, "I3") {
		t.Fatalf("duplicate arrival not convicted under I3: %v", ck.Violations())
	}
}
