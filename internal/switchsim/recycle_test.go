package switchsim_test

import (
	"fmt"
	"hash/fnv"
	"maps"
	"reflect"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// Recycling must be invisible. Every roster architecture
// (internal/roster) hands packets back through PacketReleaser, and
// each is run twice: once with a release hook
// that scribbles over each released packet — ID, input, arrival and
// every destination word — before pooling it, and once with the hook
// removed, so nothing is ever reused. A switch that still reads a
// packet after releasing it, or an engine that reuses one too early,
// makes the two runs differ. The poisoning hook also keeps the release
// ledger: each packet is released once, and (outside OQFIFO, which
// copies what it needs at Arrive and releases at the end of the next
// Step, and CIOQ, which releases once the last copy has crossed into
// its output queues) only with its last copy delivered.

// releaseLedger checks and poisons released packets.
type releaseLedger struct {
	tb        testing.TB
	afterLast bool                   // a release must follow the packet's last delivery
	delivered map[cell.PacketID]int  // copies delivered per packet
	released  map[cell.PacketID]bool // packets released
}

func newLedger(tb testing.TB, algo string) *releaseLedger {
	return &releaseLedger{
		tb:        tb,
		afterLast: algo != "oqfifo" && algo != "cioq-s2",
		delivered: map[cell.PacketID]int{},
		released:  map[cell.PacketID]bool{},
	}
}

func (l *releaseLedger) deliver(d cell.Delivery) { l.delivered[d.ID]++ }

// poison returns a release hook that checks p against the ledger,
// scribbles over it and passes it on to pool.
func (l *releaseLedger) poison(pool func(*cell.Packet)) func(*cell.Packet) {
	return func(p *cell.Packet) {
		if l.released[p.ID] {
			l.tb.Fatalf("packet %d released twice", p.ID)
		}
		if got, want := l.delivered[p.ID], p.Fanout(); l.afterLast && got != want {
			l.tb.Fatalf("packet %d released with %d of %d copies delivered", p.ID, got, want)
		}
		l.released[p.ID] = true
		p.ID, p.Input, p.Arrival = -7, -7, -7
		w := p.Dests.Words()
		for i := range w {
			w[i] = 0xdeadbeefdeadbeef
		}
		pool(p)
	}
}

func recycleSlots(n int) int64 {
	if n >= 64 {
		return 600
	}
	return 2000
}

// recycleRunner builds the run both legs of a comparison share.
func recycleRunner(algo experiment.Algorithm, n int) (*switchsim.Runner, switchsim.Switch) {
	root := xrand.New(uint64(n) + 11)
	sw := algo.New(n, root.Split("switch", 0))
	pat := traffic.Uniform{P: 0.24, MaxFanout: 4} // load 0.6, fanouts 1..4
	cfg := switchsim.Config{Slots: recycleSlots(n), WarmupFrac: -1, Seed: 11}
	return switchsim.New(sw, pat, cfg, root.Split("traffic", 0)), sw
}

// recycleRun runs algo at n with the release hook poisoned (ledger set)
// or removed (ledger nil), and returns the results with the hash of the
// delivery stream.
func recycleRun(algo experiment.Algorithm, n int, l *releaseLedger) (switchsim.Results, uint64) {
	r, sw := recycleRunner(algo, n)
	if l != nil {
		sw.SetReleaseHook(l.poison(r.PutPacket))
	} else {
		sw.SetReleaseHook(nil)
	}
	sum := hashDeliveries(r, l)
	return r.Run(algo.Name), sum()
}

// hashDeliveries has r's deliveries feed l (when set) and a hash of
// the delivery stream, which the returned function reads once r has
// run.
func hashDeliveries(r *switchsim.Runner, l *releaseLedger) func() uint64 {
	h := fnv.New64a()
	r.OnDelivery(func(d cell.Delivery) {
		if l != nil {
			l.deliver(d)
		}
		fmt.Fprintf(h, "%d %d %d %d %v;", d.ID, d.In, d.Out, d.Slot, d.Last)
	})
	return h.Sum64
}

func TestRecyclingInvisible(t *testing.T) {
	for _, algo := range roster.For(roster.Recycling) {
		t.Run(algo.Name+"/fattree:k=4", func(t *testing.T) { recyclingInFabric(t, algo) })
		for _, n := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("%s/n=%d", algo.Name, n), func(t *testing.T) {
				l := newLedger(t, algo.Name)
				poisoned, ph := recycleRun(algo, n, l)
				clean, ch := recycleRun(algo, n, nil)
				if poisoned != clean {
					t.Fatalf("poisoned pool changed the results:\n got %+v\nwant %+v", poisoned, clean)
				}
				if ph != ch {
					t.Fatal("poisoned pool changed the delivery stream")
				}
				// Released exactly once: every completed packet (every
				// arrival, for OQFIFO, whose last Step releases all; for
				// CIOQ, also those whose copies still wait at an output).
				lo, hi := clean.Completed, clean.Completed
				switch algo.Name {
				case "oqfifo":
					lo, hi = clean.OfferedPackets, clean.OfferedPackets
				case "cioq-s2":
					hi = clean.OfferedPackets
				}
				if released := int64(len(l.released)); released < lo || released > hi {
					t.Fatalf("%d packets released, want [%d, %d]", released, lo, hi)
				}
			})
		}
	}
}

// poisonNode puts a ledger's poisoning hook in front of the node pool
// a fabric registers on one of its nodes, and feeds the ledger the
// node's own deliveries. A nil ledger removes the hook instead.
type poisonNode struct {
	fabric.Node
	l *releaseLedger
}

func (p *poisonNode) SetReleaseHook(fn func(*cell.Packet)) {
	if p.l == nil {
		fn = nil
	} else {
		fn = p.l.poison(fn)
	}
	p.Node.SetReleaseHook(fn)
}

func (p *poisonNode) Step(slot int64, deliver func(cell.Delivery)) {
	if p.l == nil {
		p.Node.Step(slot, deliver)
		return
	}
	p.Node.Step(slot, func(d cell.Delivery) {
		p.l.deliver(d)
		deliver(d)
	})
}

// recyclingInFabric is the poisoned pool one level down: a 4-ary fat
// tree of algo's switches, where every node's pool of node-local
// packets and the engine's pool behind the fabric are poisoned, against
// the same fabric with no hook anywhere. Each node keeps its own
// ledger, because node-local packet IDs are per node; the fabric hands
// an engine packet back from Arrive, once it has copied the
// destinations, so that ledger does not wait for deliveries.
func recyclingInFabric(t *testing.T, algo experiment.Algorithm) {
	top, err := fabric.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(poison bool) (switchsim.Results, uint64, []*releaseLedger, *releaseLedger) {
		var nodes []*releaseLedger
		var engine *releaseLedger
		if poison {
			engine = newLedger(t, "fabric")
			engine.afterLast = false
		}
		root := xrand.New(11)
		f, err := fabric.New(top, fabric.Config{}, func(ports int, rr *xrand.Rand) fabric.Node {
			pn := &poisonNode{Node: algo.New(ports, rr).(fabric.Node)}
			if poison {
				pn.l = newLedger(t, algo.Name)
				nodes = append(nodes, pn.l)
			}
			return pn
		}, root.Split("switch", 0))
		if err != nil {
			t.Fatal(err)
		}
		cfg := switchsim.Config{Slots: 1000, WarmupFrac: -1, Seed: 11}
		r := switchsim.New(f, traffic.Uniform{P: 0.24, MaxFanout: 4}, cfg, root.Split("traffic", 0))
		if poison {
			f.SetReleaseHook(engine.poison(r.PutPacket))
		} else {
			f.SetReleaseHook(nil)
		}
		sum := hashDeliveries(r, engine)
		return r.Run(algo.Name), sum(), nodes, engine
	}
	poisoned, ph, nodes, engine := run(true)
	clean, ch, _, _ := run(false)
	if !reflect.DeepEqual(poisoned, clean) {
		t.Fatalf("poisoned pools changed the results:\n got %+v\nwant %+v", poisoned, clean)
	}
	if ph != ch {
		t.Fatal("poisoned pools changed the delivery stream")
	}
	if got := int64(len(engine.released)); got != clean.OfferedPackets {
		t.Fatalf("the fabric released %d engine packets, want every arrival (%d)", got, clean.OfferedPackets)
	}
	local := 0
	for _, l := range nodes {
		local += len(l.released)
	}
	if local == 0 {
		t.Fatal("no node released a node-local packet")
	}
}

// TestRecyclingAcrossResume restores every roster architecture from
// a mid-run snapshot — islip's restored switch rebuilds its owner counts
// from the VOQ references, the input-queued switches hold packets the
// snapshot rebuilt, CIOQ both — and each must go on releasing exactly
// the packets the straight run releases after the snapshot, each once
// (and, outside OQFIFO and CIOQ, only after its last copy), while
// replaying the straight run's results.
func TestRecyclingAcrossResume(t *testing.T) {
	for _, algo := range roster.For(roster.Recycling) {
		t.Run(algo.Name, func(t *testing.T) { recyclingAcrossResume(t, algo) })
	}
}

func recyclingAcrossResume(t *testing.T, algo experiment.Algorithm) {
	const n, snapSlot = 16, 700
	build := func(l *releaseLedger) *switchsim.Runner {
		r, sw := recycleRunner(algo, n)
		sw.SetReleaseHook(l.poison(r.PutPacket))
		r.OnDelivery(l.deliver)
		return r
	}

	// The straight run takes the checkpoint (checkpointing is passive)
	// and counts the copies delivered and the packets released before
	// it.
	straight := newLedger(t, algo.Name)
	pre := map[cell.PacketID]int{}
	r := build(straight)
	r.OnDelivery(func(d cell.Delivery) {
		straight.deliver(d)
		if d.Slot < snapSlot {
			pre[d.ID]++
		}
	})
	var blob []byte
	var before map[cell.PacketID]bool
	want, err := r.RunWithCheckpoints(algo.Name, snapSlot, func(_ int64, b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
			before = maps.Clone(straight.released)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The resumed ledger starts from those counts, so "only after the
	// last copy" spans the snapshot.
	resumed := newLedger(t, algo.Name)
	resumed.delivered = pre
	rr := build(resumed)
	if err := rr.Restore(algo.Name, blob); err != nil {
		t.Fatal(err)
	}
	got := rr.Run(algo.Name)
	if got != want {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", got, want)
	}
	wantReleased := 0
	for id := range straight.released {
		if !before[id] {
			wantReleased++
			if !resumed.released[id] {
				t.Fatalf("packet %d was released after the snapshot, but not after the restore", id)
			}
		}
	}
	if len(resumed.released) != wantReleased || wantReleased == 0 {
		t.Fatalf("resumed run released %d packets, want %d (> 0)", len(resumed.released), wantReleased)
	}
}

// TestLiveRecyclingInvisible is the poisoned pool under LiveRunner for
// every roster architecture. LiveRunner — like voqd — reads the packet's ID and
// destinations after Admit returns: no switch may release from Arrive.
func TestLiveRecyclingInvisible(t *testing.T) {
	const n, slots = 16, 1500
	for _, algo := range roster.For(roster.Recycling) {
		t.Run(algo.Name, func(t *testing.T) {
			run := func(l *releaseLedger) (uint64, [3]int64) {
				sw := algo.New(n, xrand.New(3).Split("switch", 0))
				live := switchsim.NewLive(sw)
				if l != nil {
					sw.SetReleaseHook(l.poison(live.PutPacket))
				} else {
					sw.SetReleaseHook(nil)
				}
				h := fnv.New64a()
				onDeliver := func(d cell.Delivery) {
					if l != nil {
						l.deliver(d)
					}
					fmt.Fprintf(h, "%d %d %d %d %v;", d.ID, d.In, d.Out, d.Slot, d.Last)
				}
				rnd := xrand.New(5)
				for slot := int64(0); slot < slots; slot++ {
					for in := 0; in < n; in++ {
						if !rnd.Bool(0.3) {
							continue
						}
						p := live.Borrow()
						p.Dests.Clear()
						p.Dests.RandomBernoulli(rnd, 2.0/n)
						if p.Dests.Empty() {
							p.Dests.Add(rnd.Intn(n))
						}
						fanout := p.Dests.Count()
						id, err := live.Admit(p, in, slot)
						if err != nil {
							t.Fatal(err)
						}
						if p.ID != id || p.Dests.Count() != fanout {
							t.Fatalf("slot %d: packet %d changed inside Admit (ID %d, fanout %d of %d)",
								slot, id, p.ID, p.Dests.Count(), fanout)
						}
					}
					live.Step(slot, onDeliver)
				}
				return h.Sum64(), [3]int64{live.Admitted(), live.Delivered(), live.Completed()}
			}
			l := newLedger(t, algo.Name)
			ph, pc := run(l)
			ch, cc := run(nil)
			if ph != ch || pc != cc {
				t.Fatalf("poisoned pool changed the live run: counters %v, want %v", pc, cc)
			}
			if len(l.released) == 0 {
				t.Fatal("no packet was released")
			}
		})
	}
}
