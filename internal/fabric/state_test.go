package fabric

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// slabDriver drives a fabric of FIFOMS nodes with Bernoulli multicast
// arrivals at every ingress and keeps the ledger of (packet, leaf)
// copies admitted and not yet delivered or dropped. The traffic is
// periodic: every slabPeriod slots the same burst of arrivals opens
// the period (the stream restarts from one seed), and the fabric
// drains before the next, so the peak of leaf rows in use recurs.
type slabDriver struct {
	f     *Fabric
	rng   *xrand.Rand
	p, b  float64
	burst int64
	slot  int64
	id    cell.PacketID
	owed  map[[2]int64]bool
	drops int64
}

const slabPeriod = 64

func newSlabDriver(t *testing.T, top *Topology, cfg Config, p, b float64, burst int64) *slabDriver {
	t.Helper()
	f, err := New(top, cfg, func(ports int, r *xrand.Rand) Node {
		return core.NewSwitch(ports, &core.FIFOMS{}, r)
	}, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	d := &slabDriver{f: f, p: p, b: b, burst: burst, owed: map[[2]int64]bool{}}
	f.SetDropHook(func(dr Drop) {
		if dr.Leaves.Universe() != top.Egress() || dr.Leaves.Empty() {
			t.Fatalf("drop of packet %d reports leaves %v", dr.ID, dr.Leaves)
		}
		d.drops += int64(dr.Leaves.Count())
		dr.Leaves.ForEach(func(leaf int) { d.settle(t, dr.ID, leaf, "dropped") })
	})
	return d
}

// settle retires one owed copy.
func (d *slabDriver) settle(t *testing.T, id cell.PacketID, leaf int, how string) {
	k := [2]int64{int64(id), int64(leaf)}
	if !d.owed[k] {
		t.Fatalf("slot %d: packet %d leaf %d %s but not owed", d.slot, id, leaf, how)
	}
	delete(d.owed, k)
}

func (d *slabDriver) run(t *testing.T, slots int64) {
	t.Helper()
	top := d.f.top
	deliver := func(c cell.Delivery) { d.settle(t, c.ID, c.Out, "delivered") }
	for end := d.slot + slots; d.slot < end; d.slot++ {
		phase := d.slot % slabPeriod
		if phase == 0 {
			d.rng = xrand.New(17)
		}
		for in := 0; phase < d.burst && in < top.Ingress(); in++ {
			if !d.rng.Bool(d.p) {
				continue
			}
			pk := &cell.Packet{Dests: destset.New(top.Egress()), Input: in, Arrival: d.slot}
			if pk.Dests.RandomBernoulli(d.rng, d.b); pk.Dests.Empty() {
				continue
			}
			d.id++
			pk.ID = d.id
			pk.Dests.ForEach(func(leaf int) { d.owed[[2]int64{int64(d.id), int64(leaf)}] = true })
			d.f.Arrive(pk)
		}
		d.f.Step(d.slot, deliver)
		checkSlab(t, d.f, fmt.Sprintf("slot %d", d.slot))
		if phase == d.burst {
			d.checkLedger(t)
		}
	}
}

// checkLedger asserts that the copies still buffered are exactly the
// copies owed: with every delivery and every drop-hook leaf settled,
// this holds only if each Drop.Leaves view showed exactly what was lost.
func (d *slabDriver) checkLedger(t *testing.T) {
	t.Helper()
	pending := 0
	d.f.ForEachPending(func(id cell.PacketID, leaf int) {
		if !d.owed[[2]int64{int64(id), int64(leaf)}] {
			t.Fatalf("packet %d leaf %d buffered but not owed", id, leaf)
		}
		pending++
	})
	if pending != len(d.owed) {
		t.Fatalf("%d copies buffered, %d owed", pending, len(d.owed))
	}
	if d.drops != d.f.dropped {
		t.Fatalf("drop hook saw %d lost leaves, fabric counted %d", d.drops, d.f.dropped)
	}
}

// checkSlab asserts that the leaf rows in use are exactly the rows
// held by live copy contexts and link entries.
func checkSlab(t *testing.T, f *Fabric, what string) {
	t.Helper()
	held := 0
	for ni := range f.ctxs {
		held += f.ctxs[ni].Len()
	}
	for li := range f.links {
		held += f.links[li].size
	}
	if inUse := len(f.leafRows)/f.top.words - len(f.leafFree); inUse != held {
		t.Fatalf("%s: %d leaf rows in use, %d held by contexts and link entries", what, inUse, held)
	}
}

// TestLeafSlabAccounting pins the leaf slab's bookkeeping: through runs
// with and without counted drops, and after a snapshot load, every row
// in use is held by a copy context or a link entry; a second run as
// long as the first does not grow the slab; and the drop hook sees
// exactly the lost leaves through its reused Drop.Leaves view.
func TestLeafSlabAccounting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  string
		cfg   Config
		p, b  float64
		burst int64
		drops bool
	}{
		{"no-drops", "fattree:k=4", Config{}, 0.6, 0.15, 12, false},
		{"drops", "clos:n=4,m=2,r=4", Config{LinkCapacity: 1, MaxInputCells: 2}, 0.7, 0.3, 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, err := ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			d := newSlabDriver(t, top, tc.cfg, tc.p, tc.b, tc.burst)
			const slots = 30 * slabPeriod
			d.run(t, slots)
			rows := len(d.f.leafRows)
			d.run(t, slots)
			if len(d.f.leafRows) != rows {
				t.Fatalf("second %d-slot run moved the leaf slab from %d to %d words", slots, rows, len(d.f.leafRows))
			}
			if (d.f.dropped > 0) != tc.drops {
				t.Fatalf("%d copies dropped; want drops: %v", d.f.dropped, tc.drops)
			}

			// Snapshot mid-period, with rows in use.
			d.run(t, tc.burst)
			if len(d.f.leafFree)*top.words == len(d.f.leafRows) {
				t.Fatal("no leaf row in use at the snapshot")
			}
			w := snap.NewWriter()
			d.f.SaveState(w)
			r, err := snap.NewReader(w.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			loaded := newSlabDriver(t, top, tc.cfg, tc.p, tc.b, tc.burst).f
			if err := loaded.LoadState(r); err != nil {
				t.Fatal(err)
			}
			checkSlab(t, loaded, "snapshot load")
			again := snap.NewWriter()
			loaded.SaveState(again)
			if !bytes.Equal(again.Bytes(), w.Bytes()) {
				t.Fatal("a loaded fabric saves different bytes")
			}
		})
	}
}

// TestLoadStateBoundsIDSpan saves 4-ary fat trees whose live-packet
// window, or one node's copy-context window, holds IDs 1 and 1<<44 —
// a state no run reaches, which a few bytes of snapshot can claim — and
// checks that LoadState refuses each for its ID span instead of
// restoring a window that doubles toward 2^45 entries on its next
// neighbouring ID.
func TestLoadStateBoundsIDSpan(t *testing.T) {
	build := func() *Fabric {
		top, err := FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(top, Config{}, func(ports int, r *xrand.Rand) Node {
			return core.NewSwitch(ports, &core.FIFOMS{}, r)
		}, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	live := func(f *Fabric, ids ...cell.PacketID) {
		for _, id := range ids {
			lv, _ := f.live.Ensure(id)
			*lv = liveInfo{fanout: 1, remain: 1}
		}
	}
	for _, tc := range []struct {
		name  string
		state func(f *Fabric)
	}{
		{"live", func(f *Fabric) { live(f, 1, 1<<44) }},
		{"contexts", func(f *Fabric) {
			live(f, 1)
			f.nextLocal[0] = 1 << 44
			for _, local := range []cell.PacketID{1, 1 << 44} {
				ctx, _ := f.ctxs[0].Ensure(local)
				*ctx = ctxInfo{fab: 1, leaves: f.storeRow(destset.FromMembers(f.top.Egress(), 0).Words())}
			}
		}},
	} {
		saved := build()
		tc.state(saved)
		w := snap.NewWriter()
		saved.SaveState(w)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := build().LoadState(r); err == nil || !strings.Contains(err.Error(), "span") {
			t.Errorf("%s window holding IDs 1 and 1<<44: LoadState = %v, want a span error", tc.name, err)
		}
	}
}
