package switchsim_test

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/core"
	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func newLiveFIFOMS(n int, seed uint64) *switchsim.LiveRunner {
	a, err := experiment.ByName("fifoms")
	if err != nil {
		panic(err)
	}
	return switchsim.NewLive(a.New(n, xrand.New(seed).Split("switch", 0)))
}

func admit(t *testing.T, l *switchsim.LiveRunner, in int, slot int64, dests ...int) cell.PacketID {
	t.Helper()
	p := l.Borrow()
	p.Dests.Clear()
	for _, d := range dests {
		p.Dests.Add(d)
	}
	id, err := l.Admit(p, in, slot)
	if err != nil {
		t.Fatalf("Admit(in=%d, slot=%d): %v", in, slot, err)
	}
	return id
}

// TestLiveRunnerMatchesRunner drives a LiveRunner with the arrivals of
// a recorded trace and requires the delivery stream to be identical to
// the batch Runner's on the same trace — the live path is the same
// engine, only externally clocked.
func TestLiveRunnerMatchesRunner(t *testing.T) {
	const n, slots, seed = 8, 400, 3
	pat, err := traffic.UniformAtLoad(0.7, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(pat, n, slots, xrand.New(seed).Split("traffic", 0))

	type dv struct {
		id   cell.PacketID
		in   int
		out  int
		slot int64
		last bool
	}
	var batch []dv
	{
		a, err := experiment.ByName("fifoms")
		if err != nil {
			t.Fatal(err)
		}
		sw := a.New(n, xrand.New(seed).Split("switch", 0))
		r := switchsim.New(sw, tr.Pattern(), switchsim.Config{Slots: slots, Seed: seed}, xrand.New(seed))
		r.OnDelivery(func(d cell.Delivery) {
			batch = append(batch, dv{d.ID, d.In, d.Out, d.Slot, d.Last})
		})
		r.Run("fifoms")
	}

	var live []dv
	{
		a, _ := experiment.ByName("fifoms")
		l := switchsim.NewLive(a.New(n, xrand.New(seed).Split("switch", 0)))
		bySlotM := map[int64][]traffic.TraceEntry{}
		for _, e := range tr.Arrivals {
			bySlotM[e.Slot] = append(bySlotM[e.Slot], e)
		}
		for slot := int64(0); slot < slots; slot++ {
			for _, e := range bySlotM[slot] {
				p := l.Borrow()
				p.Dests.Clear()
				for _, d := range e.Dests {
					p.Dests.Add(d)
				}
				if _, err := l.Admit(p, e.Input, slot); err != nil {
					t.Fatal(err)
				}
			}
			l.Step(slot, func(d cell.Delivery) {
				live = append(live, dv{d.ID, d.In, d.Out, d.Slot, d.Last})
			})
		}
	}

	if len(live) == 0 {
		t.Fatal("no deliveries")
	}
	if len(live) != len(batch) {
		t.Fatalf("live delivered %d copies, batch %d", len(live), len(batch))
	}
	for i := range live {
		if live[i] != batch[i] {
			t.Fatalf("delivery %d: live %+v, batch %+v", i, live[i], batch[i])
		}
	}
}

func TestLiveRunnerAdmissionDiscipline(t *testing.T) {
	l := newLiveFIFOMS(4, 1)

	admit(t, l, 0, 5, 1, 2)
	p := l.Borrow()
	p.Dests.Clear()
	p.Dests.Add(3)
	if _, err := l.Admit(p, 0, 5); err == nil {
		t.Fatal("second admission at the same input and slot must error")
	}
	p = l.Borrow()
	p.Dests.Clear()
	p.Dests.Add(3)
	if _, err := l.Admit(p, 0, 4); err == nil {
		t.Fatal("admission at an earlier slot must error")
	}
	// Other inputs and later slots are unaffected, and the rejected
	// packets went back to the pool rather than leaking.
	admit(t, l, 1, 5, 3)
	admit(t, l, 0, 6, 3)

	p = l.Borrow()
	if _, err := l.Admit(p, 9, 7); err == nil {
		t.Fatal("out-of-range input must error")
	}
	p = l.Borrow()
	p.Dests.Clear()
	if _, err := l.Admit(p, 0, 7); err == nil {
		t.Fatal("empty destination set must error")
	}
	if got := l.Admitted(); got != 3 {
		t.Fatalf("Admitted = %d, want 3", got)
	}
}

func TestLiveRunnerAccounting(t *testing.T) {
	l := newLiveFIFOMS(4, 2)
	admit(t, l, 0, 0, 1, 2, 3)
	admit(t, l, 1, 0, 1)
	var copies, lasts int
	for slot := int64(0); slot < 16; slot++ {
		l.Step(slot, func(d cell.Delivery) {
			copies++
			if d.Last {
				lasts++
			}
			if d.Slot != slot {
				t.Fatalf("delivery stamped slot %d during slot %d", d.Slot, slot)
			}
		})
	}
	if copies != 4 || lasts != 2 {
		t.Fatalf("saw %d copies, %d completions; want 4 and 2", copies, lasts)
	}
	if l.Delivered() != 4 || l.Completed() != 2 || l.AdmittedCopies() != 4 {
		t.Fatalf("counters: delivered=%d completed=%d copies=%d", l.Delivered(), l.Completed(), l.AdmittedCopies())
	}
	if l.BufferedCells() != 0 {
		t.Fatalf("BufferedCells = %d after full drain", l.BufferedCells())
	}
	cd := l.CopyDelay()
	if cd.Count != 4 || cd.Mean < 1 {
		t.Fatalf("CopyDelay = %+v", cd)
	}
}

// TestLiveRunnerSnapshotResume pins resume-equals-straight-run for the
// live path: save mid-stream, replay the tail on the restored runner,
// and require delivery-for-delivery identity with the uninterrupted
// run.
func TestLiveRunnerSnapshotResume(t *testing.T) {
	const n, slots, cut, seed = 8, 300, 120, 7
	pat, err := traffic.UniformAtLoad(0.8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.Record(pat, n, slots, xrand.New(seed).Split("traffic", 0))
	bySlot := map[int64][]traffic.TraceEntry{}
	for _, e := range tr.Arrivals {
		bySlot[e.Slot] = append(bySlot[e.Slot], e)
	}
	feed := func(l *switchsim.LiveRunner, slot int64) {
		for _, e := range bySlot[slot] {
			p := l.Borrow()
			p.Dests.Clear()
			for _, d := range e.Dests {
				p.Dests.Add(d)
			}
			if _, err := l.Admit(p, e.Input, slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	meta := snap.Meta{Algorithm: "fifoms", Pattern: "live-test", Ports: n, Seed: seed}

	var straight []cell.Delivery
	l := newLiveFIFOMS(n, seed)
	var blob []byte
	for slot := int64(0); slot < slots; slot++ {
		if slot == cut {
			m := meta
			m.NextSlot = slot
			blob = snap.Snapshot(m, l)
		}
		feed(l, slot)
		if slot >= cut {
			l.Step(slot, func(d cell.Delivery) { straight = append(straight, d) })
		} else {
			l.Step(slot, nil)
		}
	}

	var resumed []cell.Delivery
	l2 := newLiveFIFOMS(n, seed)
	m, err := snap.Restore(blob, meta, l2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for slot := m.NextSlot; slot < slots; slot++ {
		feed(l2, slot)
		l2.Step(slot, func(d cell.Delivery) { resumed = append(resumed, d) })
	}

	if len(straight) == 0 || len(straight) != len(resumed) {
		t.Fatalf("straight tail delivered %d, resumed %d", len(straight), len(resumed))
	}
	for i := range straight {
		if straight[i] != resumed[i] {
			t.Fatalf("delivery %d: straight %+v, resumed %+v", i, straight[i], resumed[i])
		}
	}
	if l.Admitted() != l2.Admitted() || l.Delivered() != l2.Delivered() || l.CopyDelay() != l2.CopyDelay() {
		t.Fatalf("accounting diverged: straight (%d,%d,%+v) resumed (%d,%d,%+v)",
			l.Admitted(), l.Delivered(), l.CopyDelay(), l2.Admitted(), l2.Delivered(), l2.CopyDelay())
	}
}

func TestLiveRunnerLoadStateRejectsUsedRunner(t *testing.T) {
	l := newLiveFIFOMS(4, 1)
	blob := snap.Snapshot(snap.Meta{Algorithm: "fifoms", Pattern: "live-test", Ports: 4, Seed: 1}, l)
	used := newLiveFIFOMS(4, 1)
	p := used.Borrow()
	p.Dests.Clear()
	p.Dests.Add(1)
	if _, err := used.Admit(p, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Restore(blob, snap.Meta{Algorithm: "fifoms", Pattern: "live-test", Ports: 4, Seed: 1}, used); err == nil {
		t.Fatal("restoring into a used LiveRunner must error")
	}
}

// ExampleLiveRunner drives the switch slot by slot under an external
// clock — the shape of voqd's slot loop.
func ExampleLiveRunner() {
	root := xrand.New(1).Split("switch", 0)
	l := switchsim.NewLive(core.NewSwitch(4, &core.FIFOMS{}, root))

	// Slot 0: input 0 sends a multicast to outputs {1, 3}.
	p := l.Borrow()
	p.Dests.Clear()
	p.Dests.Add(1)
	p.Dests.Add(3)
	if _, err := l.Admit(p, 0, 0); err != nil {
		fmt.Println(err)
		return
	}
	for slot := int64(0); slot < 4; slot++ {
		l.Step(slot, func(d cell.Delivery) {
			fmt.Printf("slot %d: copy to output %d (last=%v)\n", d.Slot, d.Out, d.Last)
		})
	}
	fmt.Printf("admitted=%d delivered=%d completed=%d\n", l.Admitted(), l.Delivered(), l.Completed())
	// Output:
	// slot 0: copy to output 1 (last=false)
	// slot 0: copy to output 3 (last=true)
	// admitted=1 delivered=2 completed=1
}

// TestInstrumentAgreesAcrossDrivers: LiveRunner and Runner attach the
// observability layer to every architecture, bare and behind the
// invariant checker: the switch registers its counters in the
// observer's registry at once.
func TestInstrumentAgreesAcrossDrivers(t *testing.T) {
	const n = 4
	for _, algo := range []string{"fifoms", "tatra"} {
		a, err := experiment.ByName(algo)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() switchsim.Switch { return a.New(n, xrand.New(1).Split("switch", 0)) }
		pat := traffic.Uniform{P: 0.2, MaxFanout: 2}
		cfg := switchsim.Config{Slots: 10}
		checked, _ := switchsim.NewChecked(fresh(), pat, cfg, xrand.New(1), check.Options{})
		for name, instrument := range map[string]func(*obs.Observer){
			"Runner":             switchsim.New(fresh(), pat, cfg, xrand.New(1)).Instrument,
			"LiveRunner":         switchsim.NewLive(fresh()).Instrument,
			"checked Runner":     checked.Instrument,
			"checked LiveRunner": switchsim.NewLive(check.Wrap(fresh(), check.Options{})).Instrument,
		} {
			o := &obs.Observer{Metrics: obs.NewRegistry()}
			instrument(o)
			if len(o.Metrics.Snapshot()) == 0 {
				t.Errorf("%s over %s: Instrument attached nothing", name, algo)
			}
		}
	}
}
