package fabric_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func mustTop(tb testing.TB, spec string) *fabric.Topology {
	tb.Helper()
	top, err := fabric.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// newFabric builds a fabric whose every node runs the named algorithm,
// seeded the way the facade seeds a run (root = Split("switch", 0)).
func newFabric(tb testing.TB, top *fabric.Topology, algo string, fcfg fabric.Config, seed uint64) *fabric.Fabric {
	tb.Helper()
	alg, err := experiment.ByName(algo)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := fabric.New(top, fcfg, func(ports int, r *xrand.Rand) fabric.Node {
		return alg.New(ports, r).(fabric.Node)
	}, xrand.New(seed).Split("switch", 0))
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// pendingCopies counts every (packet, leaf) copy still buffered in the
// fabric.
func pendingCopies(tb testing.TB, f *fabric.Fabric) int64 {
	tb.Helper()
	var n int64
	if !f.ForEachPending(func(cell.PacketID, int) { n++ }) {
		tb.Fatal("fabric nodes do not support buffer iteration")
	}
	return n
}

// TestFabricRunConservation drives both constructor topologies through
// the standard runner and checks the end-to-end ledger directly on the
// fabric: every admitted copy was delivered, dropped (counted), or is
// still buffered in some stage.
func TestFabricRunConservation(t *testing.T) {
	for _, spec := range []string{"fattree:k=4", "clos:n=4,m=4,r=4"} {
		t.Run(spec, func(t *testing.T) {
			top := mustTop(t, spec)
			f := newFabric(t, top, "fifoms", fabric.Config{}, 11)
			pat := traffic.Bernoulli{P: 0.3, B: 0.12}
			cfg := switchsim.Config{Slots: 2500, Seed: 11, WarmupFrac: 0.25}
			r := switchsim.New(f, pat, cfg, xrand.New(11).Split("traffic", 0))
			res := r.Run("fifoms@" + spec)

			if res.Unstable {
				t.Fatalf("unstable at slot %d under light load", res.UnstableAt)
			}
			if res.Delivered == 0 {
				t.Fatal("no copies delivered")
			}
			st := f.FabricStats()
			if res.Fabric == nil || res.Fabric.DeliveredCopies != st.DeliveredCopies {
				t.Fatalf("Results.Fabric = %+v, fabric reports %+v", res.Fabric, st)
			}
			if st.Topology != spec || st.Nodes != top.Nodes() || st.Links != top.NumLinks() {
				t.Fatalf("stats identity %+v does not match %s", st, spec)
			}
			pending := pendingCopies(t, f)
			if st.AdmittedCopies != st.DeliveredCopies+st.DroppedCopies+pending {
				t.Fatalf("copy ledger broken: admitted %d != delivered %d + dropped %d + pending %d",
					st.AdmittedCopies, st.DeliveredCopies, st.DroppedCopies, pending)
			}
			if st.HopMin < 1 || st.HopMax > int64(top.MaxHops())+1 {
				t.Fatalf("hop range [%d,%d] outside [1,%d]", st.HopMin, st.HopMax, top.MaxHops()+1)
			}
			if st.HopMean < 1 || st.HopMean > float64(top.MaxHops())+1 {
				t.Fatalf("hop mean %v outside [1,%d]", st.HopMean, top.MaxHops()+1)
			}
		})
	}
}

// TestFabricMetrics pins the registry a fabric fills against its own
// ledger: on a lossless fat tree the lifecycle counters count admitted
// packets, delivered copies and completed packets, and no drop counter
// is registered; on a lossy one (one-entry links, as in the statistics
// pin) fabric_drops_total is every lost leaf copy and fabric_hops_total
// every traced hop.
func TestFabricMetrics(t *testing.T) {
	for _, c := range []struct {
		name  string
		fcfg  fabric.Config
		pat   traffic.Pattern
		lossy bool
	}{
		{"lossless", fabric.Config{}, traffic.Bernoulli{P: 0.3, B: 0.12}, false},
		{"lossy", fabric.Config{LinkCapacity: 1, MaxInputCells: 4}, traffic.Bernoulli{P: 0.8, B: 0.12}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFabric(t, mustTop(t, "fattree:k=4"), "fifoms", c.fcfg, 17)
			cfg := switchsim.Config{Slots: 1500, Seed: 17, WarmupFrac: 0.25, UnstableCellLimit: 1 << 30}
			r := switchsim.New(f, c.pat, cfg, xrand.New(17).Split("traffic", 0))
			var hops, completed int64
			tr := obs.NewTracer(1024)
			tr.OnFull(func(batch []obs.Event) error {
				for _, e := range batch {
					if e.Type == obs.EvHop {
						hops++
					}
				}
				return nil
			})
			reg := obs.NewRegistry()
			r.Instrument(&obs.Observer{Trace: tr, Metrics: reg})
			r.OnDelivery(func(d cell.Delivery) {
				if d.Last {
					completed++
				}
			})
			r.Run("fifoms@fattree:k=4")
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, m := range reg.Snapshot() {
				got[m.Name] = m.Value
			}
			st := f.FabricStats()
			if got[obs.MetricArrivals] != st.AdmittedPackets || got[obs.MetricDepartures] != st.DeliveredCopies ||
				got[obs.MetricCompleted] != completed || st.DeliveredCopies == 0 {
				t.Fatalf("registry counts %d arrivals, %d departures, %d completions; the fabric admitted %d packets, delivered %d copies, completed %d packets",
					got[obs.MetricArrivals], got[obs.MetricDepartures], got[obs.MetricCompleted],
					st.AdmittedPackets, st.DeliveredCopies, completed)
			}
			if got[obs.MetricHops] != hops || hops == 0 {
				t.Fatalf("registry counts %d hops, the trace %d", got[obs.MetricHops], hops)
			}
			drops, registered := got[obs.MetricDrops]
			if c.lossy && (drops != st.DroppedCopies || drops == 0) {
				t.Fatalf("registry counts %d drops, the fabric dropped %d copies", drops, st.DroppedCopies)
			}
			if !c.lossy && (registered || st.DroppedCopies != 0) {
				t.Fatalf("lossless run dropped %d copies, registered %s: %v", st.DroppedCopies, obs.MetricDrops, registered)
			}
		})
	}
}

// TestFabricChecked runs a fat-tree under the full invariant checker:
// the per-stage invariants plus the F1 fabric conservation invariant
// must stay clean for a healthy fabric.
func TestFabricChecked(t *testing.T) {
	top := mustTop(t, "fattree:k=4")
	f := newFabric(t, top, "fifoms", fabric.Config{}, 23)
	pat := traffic.Bernoulli{P: 0.3, B: 0.12}
	cfg := switchsim.Config{Slots: 1200, Seed: 23, WarmupFrac: 0.25}
	r, ck := switchsim.NewChecked(f, pat, cfg,
		xrand.New(23).Split("traffic", 0), check.Options{Every: 16})
	r.Run("fifoms@fattree")
	if err := ck.Err(); err != nil {
		t.Fatalf("checked fat-tree run: %v", err)
	}
	if ck.Profile() != "fabric/fattree:k=4" {
		t.Fatalf("checker profile %q, want fabric/fattree:k=4", ck.Profile())
	}
	if ck.FabricStats() == nil {
		t.Fatal("checker does not forward fabric stats")
	}
}

// TestFabricCheckedWithDrops squeezes a Clos through capacity-1 links
// under heavy multicast load, so interior links overflow: the drops
// must be counted (mirroring the daemon's bounded/counted overload
// policy) and every invariant — including F1 conservation — must
// accept them.
func TestFabricCheckedWithDrops(t *testing.T) {
	top := mustTop(t, "clos:n=4,m=2,r=4")
	f := newFabric(t, top, "fifoms", fabric.Config{LinkCapacity: 1, MaxInputCells: 4}, 5)
	pat := traffic.Bernoulli{P: 0.7, B: 0.4}
	cfg := switchsim.Config{Slots: 800, Seed: 5, WarmupFrac: 0.25, UnstableCellLimit: 1 << 30}
	r, ck := switchsim.NewChecked(f, pat, cfg,
		xrand.New(5).Split("traffic", 0), check.Options{Every: 8})
	res := r.Run("fifoms@clos")
	if err := ck.Err(); err != nil {
		t.Fatalf("checked run with drops: %v", err)
	}
	st := f.FabricStats()
	if st.DroppedCopies == 0 {
		t.Fatal("capacity-1 links dropped nothing under heavy load; the overload path is untested")
	}
	if res.Fabric.DroppedCopies != st.DroppedCopies {
		t.Fatalf("results report %d drops, fabric %d", res.Fabric.DroppedCopies, st.DroppedCopies)
	}
	var byHop int64
	for _, c := range st.DropsByHop {
		byHop += c
	}
	if byHop != st.DroppedCopies {
		t.Fatalf("drops-by-hop %v does not sum to %d", st.DropsByHop, st.DroppedCopies)
	}
	pending := pendingCopies(t, f)
	if st.AdmittedCopies != st.DeliveredCopies+st.DroppedCopies+pending {
		t.Fatalf("copy ledger broken after drops: admitted %d != delivered %d + dropped %d + pending %d",
			st.AdmittedCopies, st.DeliveredCopies, st.DroppedCopies, pending)
	}
}

type deliveryRec struct {
	id      cell.PacketID
	in, out int
	slot    int64
	arrival int64
	last    bool
}

// runStream runs the simulation and returns the delivery stream in the
// canonical (slot, out, id) order. One cell per output per slot makes
// (slot, out) unique, so the order is total and the comparison exact.
func runStream(tb testing.TB, sw switchsim.Switch, n int, seed uint64, slots int64, pat traffic.Pattern) []deliveryRec {
	tb.Helper()
	cfg := switchsim.Config{Slots: slots, Seed: seed, WarmupFrac: 0.25}
	r := switchsim.New(sw, pat, cfg, xrand.New(seed).Split("traffic", 0))
	var recs []deliveryRec
	r.OnDelivery(func(d cell.Delivery) {
		recs = append(recs, deliveryRec{id: d.ID, in: d.In, out: d.Out, slot: d.Slot, arrival: d.Arrival, last: d.Last})
	})
	res := r.Run("diff")
	if res.Unstable {
		tb.Fatalf("differential run unstable at slot %d", res.UnstableAt)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		if a.out != b.out {
			return a.out < b.out
		}
		return a.id < b.id
	})
	return recs
}

// TestFabricDifferential is the differential battery on Clos(N, N, 1):
// the N-port ingress switch under test feeds N pass-through 1x1
// middle switches, and they feed an N-port FIFOMS egress switch whose
// input j carries only leaf j. An otherwise idle 1x1 FIFO forwards in
// the slot a cell reaches it, and the egress switch, never contended,
// delivers each cell in the slot it arrives, so the compound must
// reproduce the single switch's delivery stream bit for bit, two
// slots later (one per link) — same packet IDs, inputs, outputs and
// arrival stamps. Last flags are
// excluded from the record comparison — a ModeCopied architecture
// marks every fanout-1 copy last, while the fabric computes a
// per-packet last — and checked for coherence on the fabric stream
// instead. Any divergence in the fabric's admission, splitting or
// link timing shows up as a stream mismatch.
func TestFabricDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery is not short")
	}
	type size struct {
		n     int
		slots int64
		pat   traffic.Pattern
	}
	sizes := []size{
		{4, 3000, traffic.Bernoulli{P: 0.5, B: 0.3}},
		{16, 1200, traffic.Bernoulli{P: 0.3, B: 0.1}},
	}
	for _, alg := range roster.For(roster.FabricDifferential) {
		algoName := alg.Name
		for _, sz := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				// The standalone switch must draw the same randomness as
				// fabric node 0, which New seeds with root.Split("node", 0).
				single := alg.New(sz.n, xrand.New(seed).Split("switch", 0).Split("node", 0))
				want := runStream(t, single, sz.n, seed, sz.slots, sz.pat)

				top, err := fabric.Clos(sz.n, sz.n, 1)
				if err != nil {
					t.Fatal(err)
				}
				node := 0 // New builds the nodes in order; node 0 is under test
				fab, err := fabric.New(top, fabric.Config{}, func(ports int, r *xrand.Rand) fabric.Node {
					defer func() { node++ }()
					if node == 0 {
						return alg.New(ports, r).(fabric.Node)
					}
					return core.NewSwitch(ports, &core.FIFOMS{}, r)
				}, xrand.New(seed).Split("switch", 0))
				if err != nil {
					t.Fatal(err)
				}
				got := runStream(t, fab, sz.n, seed, sz.slots, sz.pat)

				// The fabric run ends at the same slot, so the single
				// switch's deliveries in its last two slots have no
				// shifted counterpart; trim them before comparing.
				for len(want) > 0 && want[len(want)-1].slot >= sz.slots-2 {
					want = want[:len(want)-1]
				}
				if len(got) != len(want) {
					t.Fatalf("%s n=%d seed=%d: %d fabric deliveries, single switch made %d",
						algoName, sz.n, seed, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					w.slot += 2 // the constant two-link delay
					w.last, g.last = false, false
					if g != w {
						t.Fatalf("%s n=%d seed=%d: delivery %d diverged:\nfabric %+v\nsingle %+v (slot already shifted)",
							algoName, sz.n, seed, i, got[i], w)
					}
				}
				if len(want) == 0 {
					t.Fatalf("%s n=%d seed=%d: empty delivery stream proves nothing", algoName, sz.n, seed)
				}

				// The fabric's Last is per packet: at most one per ID, and
				// only on that packet's final delivery slot.
				maxSlot := make(map[cell.PacketID]int64)
				for _, g := range got {
					if s, ok := maxSlot[g.id]; !ok || g.slot > s {
						maxSlot[g.id] = g.slot
					}
				}
				lasts := make(map[cell.PacketID]int)
				for _, g := range got {
					if !g.last {
						continue
					}
					lasts[g.id]++
					if g.slot != maxSlot[g.id] {
						t.Fatalf("%s n=%d seed=%d: packet %d marked last at slot %d but delivered again at %d",
							algoName, sz.n, seed, g.id, g.slot, maxSlot[g.id])
					}
				}
				if len(lasts) == 0 {
					t.Fatalf("%s n=%d seed=%d: no packet completed", algoName, sz.n, seed)
				}
				for id, c := range lasts {
					if c != 1 {
						t.Fatalf("%s n=%d seed=%d: packet %d marked last %d times", algoName, sz.n, seed, id, c)
					}
				}
			}
		}
	}
}

// TestFabricLiveRunner drives a fat-tree behind the live (daemon)
// runner: manual admissions, manual slots, per-copy delivery
// callbacks.
func TestFabricLiveRunner(t *testing.T) {
	top := mustTop(t, "fattree:k=4")
	f := newFabric(t, top, "fifoms", fabric.Config{}, 3)
	l := switchsim.NewLive(f)
	if l.Ports() != 16 {
		t.Fatalf("live fabric has %d ports, want 16", l.Ports())
	}
	delivered := map[cell.PacketID]int{}
	var slot int64
	for ; slot < 40; slot++ {
		if slot < 8 {
			p := l.Borrow()
			p.Dests.Clear()
			p.Dests.Add(int(slot))        // same-switch leaf
			p.Dests.Add(int(slot+8) % 16) // cross-pod leaf
			if _, err := l.Admit(p, int(slot), slot); err != nil {
				t.Fatal(err)
			}
		}
		l.Step(slot, func(d cell.Delivery) { delivered[d.ID]++ })
	}
	if l.Admitted() != 8 || l.Completed() != 8 {
		t.Fatalf("admitted %d, completed %d; want 8/8", l.Admitted(), l.Completed())
	}
	for id, n := range delivered {
		if n != 2 {
			t.Fatalf("packet %d delivered %d copies, want 2", id, n)
		}
	}
	if f.BufferedCells() != 0 {
		t.Fatalf("%d cells still buffered after drain", f.BufferedCells())
	}
}

// fabricStepper drives a fat-tree with recycled packets, for the
// allocation guard and the benchmark: at a fixed deterministic load, or
// from one traffic source per ingress.
type fabricStepper struct {
	f      *fabric.Fabric
	free   []*cell.Packet
	nextID cell.PacketID
	slot   int64
	n      int
	srcs   []traffic.Source // nil: the fixed two-arrival pattern
}

func newFabricStepper(tb testing.TB, algo string) *fabricStepper {
	tb.Helper()
	return newFabricStepperCfg(tb, algo, fabric.Config{})
}

func newFabricStepperCfg(tb testing.TB, algo string, fcfg fabric.Config) *fabricStepper {
	tb.Helper()
	top := mustTop(tb, "fattree:k=4")
	f := newFabric(tb, top, algo, fcfg, 41)
	s := &fabricStepper{f: f, n: top.Ingress()}
	f.SetReleaseHook(func(p *cell.Packet) { s.free = append(s.free, p) })
	return s
}

// newUniformStepper drives the named fabric with the paper's uniform
// traffic (fanout uniform on 1..maxFanout) at the given load, the
// traffic fab-fattree8 runs.
func newUniformStepper(tb testing.TB, spec, algo string, fcfg fabric.Config, load float64, maxFanout int) *fabricStepper {
	tb.Helper()
	top := mustTop(tb, spec)
	pat, err := traffic.UniformAtLoad(load, maxFanout, top.Ingress())
	if err != nil {
		tb.Fatal(err)
	}
	s := &fabricStepper{
		f:    newFabric(tb, top, algo, fcfg, 41),
		n:    top.Ingress(),
		srcs: traffic.BuildSources(pat, top.Ingress(), xrand.New(41).Split("traffic", 0)),
	}
	s.f.SetReleaseHook(func(p *cell.Packet) { s.free = append(s.free, p) })
	return s
}

func (s *fabricStepper) packet() *cell.Packet {
	if k := len(s.free) - 1; k >= 0 {
		p := s.free[k]
		s.free = s.free[:k]
		return p
	}
	return &cell.Packet{Dests: destset.New(s.n)}
}

// step simulates one slot: each source's draw or, without sources, two
// arrivals at rotating inputs, each a two-leaf multicast (one local,
// one cross-pod); then one fabric step.
func (s *fabricStepper) step() {
	for in, src := range s.srcs {
		p := s.packet()
		if !src.(traffic.IntoSource).NextInto(s.slot, p.Dests) {
			s.free = append(s.free, p)
			continue
		}
		s.nextID++
		p.ID, p.Input, p.Arrival = s.nextID, in, s.slot
		s.f.Arrive(p)
	}
	for a := 0; a < 2 && s.srcs == nil; a++ {
		in := (int(s.slot) + a*7) % s.n
		p := s.packet()
		s.nextID++
		p.ID, p.Input, p.Arrival = s.nextID, in, s.slot
		p.Dests.Clear()
		p.Dests.Add(in)
		p.Dests.Add((in + 9) % s.n)
		s.f.Arrive(p)
	}
	s.f.Step(s.slot, nil)
	s.slot++
}

// TestFabricSlotAllocs is the steady-state allocation guard: once the
// pools and windows are warm, a fabric slot — admissions, link
// crossings, every stage's scheduling, splits and deliveries — must
// run without a single heap allocation, like the single-switch slot
// loop it extends. The pim leg holds copied-mode nodes to it: their
// local packets come back through the per-node release hook once the
// last copy leaves, instead of being allocated afresh at every hop.
// Every roster architecture (internal/roster) is a node here.
func TestFabricSlotAllocs(t *testing.T) {
	for _, algo := range roster.Names(roster.FabricAllocs) {
		t.Run(algo, func(t *testing.T) {
			s := newFabricStepper(t, algo)
			for i := 0; i < 500; i++ {
				s.step()
			}
			if avg := testing.AllocsPerRun(200, s.step); avg != 0 {
				t.Fatalf("warm fabric slot allocates %v times per slot; want 0", avg)
			}
		})
	}
}

// TestInputBacklogMatchesQueueSizes pins the value the fabric's
// admission reads to the queue metric the engine samples: for every
// roster architecture (internal/roster), after every arrival and every slot, each port's
// InputBacklog equals its QueueSizes entry.
func TestInputBacklogMatchesQueueSizes(t *testing.T) {
	const n, slots = 8, 800
	for _, alg := range roster.For(roster.FabricNode) {
		t.Run(alg.Name, func(t *testing.T) {
			nd := alg.New(n, xrand.New(3).Split("switch", 0)).(fabric.Node)
			sources := traffic.BuildSources(traffic.Uniform{P: 0.3, MaxFanout: 4}, n, xrand.New(3).Split("traffic", 0))
			sizes := make([]int, n)
			busy := 0
			compare := func(slot int64, after string) {
				nd.QueueSizes(sizes)
				for port, want := range sizes {
					if got := nd.InputBacklog(port); got != want {
						t.Fatalf("slot %d after %s: port %d InputBacklog %d, QueueSizes %d", slot, after, port, got, want)
					}
					if want > 0 {
						busy++
					}
				}
			}
			var id cell.PacketID
			for slot := int64(0); slot < slots; slot++ {
				for in, src := range sources {
					dests := src.Next(slot)
					if dests == nil {
						continue
					}
					id++
					nd.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: dests.Clone()})
					compare(slot, "an arrival")
				}
				nd.Step(slot, func(cell.Delivery) {})
				compare(slot, "the step")
			}
			if busy == 0 {
				t.Fatal("no port ever held a cell; the comparison proves nothing")
			}
		})
	}
}

// TestFabricQueueSizesAfterStep pins when a fabric samples its queue
// sizes: the engine reads QueueSizes after Step, so for every roster
// architecture as the node it must report the ingress queues as the nodes left
// them, not as the admission loop saw them before they stepped —
// sequential or parallel.
func TestFabricQueueSizesAfterStep(t *testing.T) {
	for _, algo := range roster.Names(roster.FabricNode) {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", algo, workers), func(t *testing.T) {
				s := newUniformStepper(t, "fattree:k=4", algo, fabric.Config{Workers: workers}, 0.8, 4)
				defer s.f.Close()
				top := s.f.Topology()
				got, node := make([]int, top.Ingress()), make([][]int, top.Nodes())
				for i := range node {
					node[i] = make([]int, top.NodePorts(i))
				}
				busy := 0
				for slot := 0; slot < 2000; slot++ {
					s.step()
					s.f.QueueSizes(got)
					for i := range node {
						s.f.Node(i).QueueSizes(node[i])
					}
					for in, q := range got {
						ep := top.IngressAt(in)
						if want := node[ep.Node][ep.Port]; q != want {
							t.Fatalf("slot %d ingress %d: fabric reports %d cells, node %d input %d holds %d",
								slot, in, q, ep.Node, ep.Port, want)
						}
						if q > 0 {
							busy++
						}
					}
				}
				if busy == 0 {
					t.Fatal("no ingress ever held a cell; the comparison proves nothing")
				}
			})
		}
	}
}

// BenchmarkFabricSlot is the CI-gated per-slot cost of a fat tree: k=4
// is the 20-switch tree under a light deterministic multicast load, k=8
// the 80-switch tree under fab-fattree8's uniform load 0.9 with fanout
// up to 4. A constant light state can read flat where the live workload
// moves, so k=8 is the witness for the cost of splitting trees.
func BenchmarkFabricSlot(b *testing.B) {
	for _, leg := range []struct {
		name string
		new  func(b *testing.B) *fabricStepper
		warm int
	}{
		{"k=4", func(b *testing.B) *fabricStepper { return newFabricStepper(b, "fifoms") }, 500},
		{"k=8", func(b *testing.B) *fabricStepper {
			return newUniformStepper(b, "fattree:k=8", "fifoms", fabric.Config{}, 0.9, 4)
		}, 3000},
	} {
		b.Run(leg.name, func(b *testing.B) {
			s := leg.new(b)
			for i := 0; i < leg.warm; i++ {
				s.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}

// portOneNode delivers every copy on output 1, whatever its arbiter
// chose: a crossbar wiring fault.
type portOneNode struct{ *core.Switch }

func (m portOneNode) Step(slot int64, deliver func(cell.Delivery)) {
	m.Switch.Step(slot, func(d cell.Delivery) {
		d.Out = 1
		deliver(d)
	})
}

// TestDeliveryOnUnroutedOutputPanics: Clos(1, 2, 1)'s ingress switch
// links output 1 to the second middle switch, but its one leaf routes
// through output 0, so output 1 holds no leaf-mask row. A copy
// delivered there is a node fault, and the fabric reports it as one.
func TestDeliveryOnUnroutedOutputPanics(t *testing.T) {
	top := mustTop(t, "clos:n=1,m=2,r=1")
	node := 0
	f, err := fabric.New(top, fabric.Config{}, func(ports int, r *xrand.Rand) fabric.Node {
		defer func() { node++ }()
		if node == 0 {
			return portOneNode{core.NewSwitch(ports, &core.FIFOMS{}, r)}
		}
		return core.NewSwitch(ports, &core.FIFOMS{}, r)
	}, xrand.New(1).Split("switch", 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Arrive(&cell.Packet{ID: 1, Input: 0, Arrival: 0, Dests: destset.FromMembers(1, 0)})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "delivered port 1 with no routed leaves") {
			t.Fatalf("panic %q, want the no-routed-leaves report", msg)
		}
	}()
	f.Step(0, func(cell.Delivery) {})
}
