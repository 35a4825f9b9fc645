package fabric

import (
	"strings"
	"testing"

	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// walkRoute follows the route table from node toward leaf and returns
// the number of links crossed. Build guarantees termination.
func walkRoute(t *testing.T, top *Topology, node, leaf int) int {
	t.Helper()
	hops, cur := 0, node
	for {
		out := top.RouteOut(cur, leaf)
		if out < 0 {
			t.Fatalf("node %d has no route for leaf %d", cur, leaf)
		}
		if top.outLeaf[cur][out] == int32(leaf) {
			return hops
		}
		li := top.outLink[cur][out]
		if li < 0 {
			t.Fatalf("node %d sends leaf %d out port %d, which drives nothing", cur, leaf, out)
		}
		cur = top.links[li].To.Node
		hops++
		if hops > top.Nodes() {
			t.Fatalf("routing loop for leaf %d from node %d", leaf, node)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		top, err := FatTree(k)
		if err != nil {
			t.Fatalf("FatTree(%d): %v", k, err)
		}
		h := k / 2
		wantNodes := 2*k*h + h*h
		wantLeaves := k * h * h
		if top.Nodes() != wantNodes {
			t.Errorf("k=%d: %d nodes, want %d", k, top.Nodes(), wantNodes)
		}
		if top.Ingress() != wantLeaves || top.Egress() != wantLeaves {
			t.Errorf("k=%d: %d ingress / %d egress ports, want %d", k, top.Ingress(), top.Egress(), wantLeaves)
		}
		for n := 0; n < top.Nodes(); n++ {
			if top.NodePorts(n) != k {
				t.Errorf("k=%d: node %d has %d ports, want %d", k, n, top.NodePorts(n), k)
			}
		}
		// Every output port of every switch drives exactly one link or
		// leaf, so the link count is total output ports minus leaves.
		if want := wantNodes*k - wantLeaves; top.NumLinks() != want {
			t.Errorf("k=%d: %d links, want %d", k, top.NumLinks(), want)
		}
		if k == 2 {
			// Degenerate single-core tree: edge-agg-core-agg-edge.
			if top.MaxHops() != 4 {
				t.Errorf("k=2: MaxHops %d, want 4", top.MaxHops())
			}
		}
	}
}

func TestFatTreeRoutes(t *testing.T) {
	top, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if top.MaxHops() != 4 {
		t.Fatalf("MaxHops %d, want 4", top.MaxHops())
	}
	// Hop counts from an ingress edge switch are exactly 0 (same
	// switch), 2 (same pod via an aggregation switch) or 4 (via core).
	for in := 0; in < top.Ingress(); in++ {
		node := top.IngressAt(in).Node
		for leaf := 0; leaf < top.Egress(); leaf++ {
			hops := walkRoute(t, top, node, leaf)
			dst := top.EgressAt(leaf).Node
			var want int
			switch {
			case dst == node:
				want = 0
			case dst/2 == node/2: // same pod (h=2: 2 edge switches per pod)
				want = 2
			default:
				want = 4
			}
			if hops != want {
				t.Errorf("ingress %d (node %d) -> leaf %d (node %d): %d hops, want %d",
					in, node, leaf, dst, hops, want)
			}
		}
	}
}

func TestFatTreeBadArity(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 5, 18, 100} {
		if _, err := FatTree(k); err == nil {
			t.Errorf("FatTree(%d) built; want error", k)
		}
	}
}

func TestClosShape(t *testing.T) {
	cases := []struct{ n, m, r int }{
		{2, 2, 2}, {4, 4, 4}, {4, 5, 4}, {3, 2, 5}, {1, 1, 1},
	}
	for _, c := range cases {
		top, err := Clos(c.n, c.m, c.r)
		if err != nil {
			t.Fatalf("Clos(%d,%d,%d): %v", c.n, c.m, c.r, err)
		}
		if top.Nodes() != 2*c.r+c.m {
			t.Errorf("Clos(%d,%d,%d): %d nodes, want %d", c.n, c.m, c.r, top.Nodes(), 2*c.r+c.m)
		}
		if top.Ingress() != c.r*c.n || top.Egress() != c.r*c.n {
			t.Errorf("Clos(%d,%d,%d): %dx%d external ports, want %d",
				c.n, c.m, c.r, top.Ingress(), top.Egress(), c.r*c.n)
		}
		if top.NumLinks() != 2*c.m*c.r {
			t.Errorf("Clos(%d,%d,%d): %d links, want %d", c.n, c.m, c.r, top.NumLinks(), 2*c.m*c.r)
		}
		if top.MaxHops() != 2 {
			t.Errorf("Clos(%d,%d,%d): MaxHops %d, want 2", c.n, c.m, c.r, top.MaxHops())
		}
		// Every ingress-to-leaf path crosses exactly two links.
		for in := 0; in < top.Ingress(); in += c.n {
			for leaf := 0; leaf < top.Egress(); leaf++ {
				if hops := walkRoute(t, top, top.IngressAt(in).Node, leaf); hops != 2 {
					t.Fatalf("Clos(%d,%d,%d): ingress %d -> leaf %d crossed %d links",
						c.n, c.m, c.r, in, leaf, hops)
				}
			}
		}
	}
	for _, c := range []struct{ n, m, r int }{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}, {64, 2, 65}, {2, 300, 2}, {2, 2, 257}} {
		if _, err := Clos(c.n, c.m, c.r); err == nil {
			t.Errorf("Clos(%d,%d,%d) built; want error", c.n, c.m, c.r)
		}
	}
}

// TestSplitPartition is the splitting property the multicast trees rest
// on: at every node, the child leaf subsets produced by ChildLeaves
// over the node's output ports partition the parent leaf set — no leaf
// lost, no leaf duplicated across branches.
func TestSplitPartition(t *testing.T) {
	tops := []*Topology{}
	if top, err := FatTree(4); err == nil {
		tops = append(tops, top)
	} else {
		t.Fatal(err)
	}
	if top, err := Clos(3, 4, 5); err == nil {
		tops = append(tops, top)
	} else {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for _, top := range tops {
		leaves := destset.New(top.Egress())
		var local *destset.Set
		child := destset.New(top.Egress())
		union := destset.New(top.Egress())
		for node := 0; node < top.Nodes(); node++ {
			// The parent set must stay within the leaves this node can
			// route (interior nodes only see leaves routed through them).
			routable := destset.New(top.Egress())
			for leaf := 0; leaf < top.Egress(); leaf++ {
				if top.RouteOut(node, leaf) >= 0 {
					routable.Add(leaf)
				}
			}
			if routable.Empty() {
				t.Fatalf("%s: node %d routes nothing", top.Name(), node)
			}
			for trial := 0; trial < 20; trial++ {
				leaves.CopyFrom(routable)
				if trial > 0 {
					// Random nonempty subsets of the routable leaves.
					leaves.ForEach(func(leaf int) {
						if rng.Bool(0.5) {
							leaves.Remove(leaf)
						}
					})
					if leaves.Empty() {
						continue
					}
				}
				if local == nil || local.Universe() != top.NodePorts(node) {
					local = destset.New(top.NodePorts(node))
				}
				top.LocalDests(node, leaves, local)
				if local.Empty() {
					t.Fatalf("%s node %d: LocalDests empty for %v", top.Name(), node, leaves)
				}
				union.Clear()
				for out := 0; out < top.NodePorts(node); out++ {
					top.ChildLeaves(node, out, leaves, child)
					if !local.Contains(out) {
						if !child.Empty() {
							t.Fatalf("%s node %d: port %d not in LocalDests but ChildLeaves %v",
								top.Name(), node, out, child)
						}
						continue
					}
					if child.Empty() {
						t.Fatalf("%s node %d: port %d in LocalDests but no child leaves",
							top.Name(), node, out)
					}
					child.ForEach(func(leaf int) {
						if union.Contains(leaf) {
							t.Fatalf("%s node %d: leaf %d in two child subsets", top.Name(), node, leaf)
						}
						if top.RouteOut(node, leaf) != out {
							t.Fatalf("%s node %d: leaf %d in subset of port %d, routed to %d",
								top.Name(), node, leaf, out, top.RouteOut(node, leaf))
						}
						union.Add(leaf)
					})
				}
				if !union.Equal(leaves) {
					t.Fatalf("%s node %d: child subsets union %v != parent %v",
						top.Name(), node, union, leaves)
				}
			}
		}
	}
}

// refLocalDests and refChildLeaves are the per-leaf route-table loops
// that the word forms replaced, kept as their reference.
func refLocalDests(top *Topology, node int, leaves, dst *destset.Set) {
	dst.Clear()
	leaves.ForEach(func(leaf int) { dst.Add(top.RouteOut(node, leaf)) })
}

func refChildLeaves(top *Topology, node, out int, leaves, dst *destset.Set) {
	dst.Clear()
	leaves.ForEach(func(leaf int) {
		if top.RouteOut(node, leaf) == out {
			dst.Add(leaf)
		}
	})
}

// checkRouteWords pins LocalDests and ChildLeaves to the reference
// loops at every node of top, until budget leaf visits are spent: on
// the empty set, the node's routed leaves, random subsets of them and,
// with singletons, each routed leaf alone. ChildLeaves also gets the
// full leaf set, whose unrouted members it must leave out. Every
// destination starts full, so a word form that fails to clear shows.
func checkRouteWords(t *testing.T, top *Topology, rng *xrand.Rand, random int, singletons bool, budget int) {
	t.Helper()
	nl := top.Egress()
	full, routed, leaves := destset.New(nl), destset.New(nl), destset.New(nl)
	got, want := destset.New(nl), destset.New(nl)
	for leaf := 0; leaf < nl; leaf++ {
		full.Add(leaf)
	}
	for node := 0; node < top.Nodes() && budget > 0; node++ {
		ports := top.NodePorts(node)
		budget -= nl * (ports + 1)
		allOut := destset.New(ports)
		for out := 0; out < ports; out++ {
			allOut.Add(out)
		}
		gotOut, wantOut := destset.New(ports), destset.New(ports)
		routed.Clear()
		for leaf := 0; leaf < nl; leaf++ {
			if top.RouteOut(node, leaf) >= 0 {
				routed.Add(leaf)
			}
		}
		same := func(what string, localDests bool) {
			if localDests {
				gotOut.CopyFrom(allOut)
				top.LocalDests(node, leaves, gotOut)
				refLocalDests(top, node, leaves, wantOut)
				if !gotOut.Equal(wantOut) {
					t.Fatalf("%s node %d, %s leaves %v: LocalDests %v, route table says %v",
						top.Name(), node, what, leaves, gotOut, wantOut)
				}
			}
			for out := 0; out < ports; out++ {
				got.CopyFrom(full)
				top.ChildLeaves(node, out, leaves, got)
				refChildLeaves(top, node, out, leaves, want)
				if !got.Equal(want) {
					t.Fatalf("%s node %d port %d, %s leaves %v: ChildLeaves %v, route table says %v",
						top.Name(), node, out, what, leaves, got, want)
				}
			}
		}
		leaves.Clear()
		same("empty", true)
		leaves.CopyFrom(routed)
		same("routed", true)
		leaves.CopyFrom(full)
		same("full", false)
		for i := 0; i < random; i++ {
			p := rng.Float64()
			leaves.Clear()
			routed.ForEach(func(leaf int) {
				if rng.Bool(p) {
					leaves.Add(leaf)
				}
			})
			same("random", true)
		}
		if singletons {
			routed.ForEach(func(leaf int) {
				leaves.Clear()
				leaves.Add(leaf)
				same("singleton", true)
			})
		}
	}
}

// TestRouteWordsMatchRouteTable pins the per-output leaf masks Build
// derives to the route table they encode: the word forms of LocalDests
// and ChildLeaves agree with the per-leaf loops on every node of fat
// trees up to k = 16 (1024 leaves, sixteen words) and of Clos shapes
// from one port to 64.
func TestRouteWordsMatchRouteTable(t *testing.T) {
	tops := []*Topology{}
	for _, k := range []int{2, 4, 8, 16} {
		top, err := FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	for _, c := range []struct{ n, m, r int }{{1, 1, 1}, {8, 8, 8}, {4, 2, 16}} {
		top, err := Clos(c.n, c.m, c.r)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	rng := xrand.New(29)
	for _, top := range tops {
		checkRouteWords(t, top, rng, 8, true, 1<<62)
	}
}

// chain builds the minimal valid two-node pipeline used as the base for
// builder-misuse tests: node0 input 0 is the ingress, node0 output 0
// links to node1 input 0, node1 output 0 is the single leaf.
func chain() *Builder {
	b := NewBuilder("chain")
	n0 := b.AddNode(1)
	n1 := b.AddNode(1)
	b.Connect(Endpoint{n0, 0}, Endpoint{n1, 0})
	b.BindIngress(n0, 0)
	b.BindEgress(n1, 0)
	b.Route(n0, 0, 0)
	b.Route(n1, 0, 0)
	return b
}

func TestBuilderValid(t *testing.T) {
	top, err := chain().Build()
	if err != nil {
		t.Fatal(err)
	}
	if top.Nodes() != 2 || top.Ingress() != 1 || top.Egress() != 1 || top.MaxHops() != 1 {
		t.Fatalf("chain shape: nodes=%d in=%d out=%d hops=%d", top.Nodes(), top.Ingress(), top.Egress(), top.MaxHops())
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(b *Builder)
		want string
	}{
		{"empty", func(b *Builder) { *b = *NewBuilder("empty") }, "no nodes"},
		{"no ingress", func(b *Builder) { b.ingress = nil }, "no ingress"},
		{"no egress", func(b *Builder) { b.egress = nil }, "no egress"},
		{"bad port count", func(b *Builder) { b.AddNode(0) }, "non-positive port count"},
		{"ingress node range", func(b *Builder) { b.BindIngress(9, 0) }, "out of range"},
		{"ingress port range", func(b *Builder) { b.BindIngress(0, 5) }, "out of range"},
		{"double-fed input", func(b *Builder) { b.BindIngress(1, 0) }, "already fed"},
		{"double-driven output", func(b *Builder) { b.BindEgress(0, 0) }, "already drives"},
		{"route node range", func(b *Builder) { b.Route(7, 0, 0) }, "out of range"},
		{"route leaf range", func(b *Builder) { b.Route(0, 3, 0) }, "out of range"},
		{"route port range", func(b *Builder) { b.Route(0, 0, 4) }, "out of range"},
		{"route twice", func(b *Builder) { b.Route(0, 0, 0) }, "routed twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := chain()
			c.mod(b)
			top, err := b.Build()
			if err == nil {
				t.Fatalf("Build() = %v, want error containing %q", top, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}

	t.Run("unwired route port", func(t *testing.T) {
		b := NewBuilder("t")
		n0 := b.AddNode(2)
		b.BindIngress(n0, 0)
		b.BindEgress(n0, 0)
		b.Route(n0, 0, 1) // port 1 drives neither link nor leaf
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unwired port") {
			t.Fatalf("want unwired-port error, got %v", err)
		}
	})
	t.Run("route to wrong leaf port", func(t *testing.T) {
		b := NewBuilder("t")
		n0 := b.AddNode(2)
		b.BindIngress(n0, 0)
		b.BindEgress(n0, 0)
		b.BindEgress(n0, 1)
		b.Route(n0, 0, 1) // leaf 0 sent out the port that binds leaf 1
		b.Route(n0, 1, 1)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "binds leaf") {
			t.Fatalf("want wrong-leaf error, got %v", err)
		}
	})
	t.Run("downstream cannot route", func(t *testing.T) {
		b := NewBuilder("t")
		n0 := b.AddNode(2)
		n1 := b.AddNode(1)
		b.Connect(Endpoint{n0, 1}, Endpoint{n1, 0})
		b.BindIngress(n0, 0)
		b.BindEgress(n0, 0)
		b.Route(n0, 0, 1) // forwards to n1, which has no route for leaf 0
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cannot route") {
			t.Fatalf("want cannot-route error, got %v", err)
		}
	})
	t.Run("ingress missing leaf route", func(t *testing.T) {
		b := NewBuilder("t")
		n0 := b.AddNode(2)
		b.BindIngress(n0, 0)
		b.BindEgress(n0, 0)
		b.BindEgress(n0, 1)
		b.Route(n0, 0, 0) // leaf 1 unrouted at the ingress node
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no route for leaf") {
			t.Fatalf("want missing-route error, got %v", err)
		}
	})
	t.Run("routing loop", func(t *testing.T) {
		b := NewBuilder("t")
		n0 := b.AddNode(2)
		n1 := b.AddNode(2)
		b.Connect(Endpoint{n0, 1}, Endpoint{n1, 1})
		b.Connect(Endpoint{n1, 0}, Endpoint{n0, 1})
		b.BindIngress(n0, 0)
		b.BindEgress(n1, 1)
		b.Route(n0, 0, 1)
		b.Route(n1, 0, 0) // n1 bounces the leaf back to n0: loop
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "loop") {
			t.Fatalf("want loop error, got %v", err)
		}
	})
}

func TestParseSpec(t *testing.T) {
	top, err := ParseSpec("fattree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	if top.Name() != "fattree:k=4" || top.Nodes() != 20 || top.Ingress() != 16 {
		t.Fatalf("fattree:k=4 parsed to %s with %d nodes, %d ports", top.Name(), top.Nodes(), top.Ingress())
	}
	top, err = ParseSpec("clos:n=4,m=4,r=4")
	if err != nil {
		t.Fatal(err)
	}
	if top.Name() != "clos:n=4,m=4,r=4" || top.Nodes() != 12 || top.Ingress() != 16 {
		t.Fatalf("clos parsed to %s with %d nodes, %d ports", top.Name(), top.Nodes(), top.Ingress())
	}

	bad := []string{
		"", "fattree", "fattree:", "fattree:k", "fattree:k=", "fattree:k=x",
		"fattree:k=3", "fattree:k=4,k=4", "fattree:k=4,extra=1", "fattree:j=4",
		"clos:n=2", "clos:n=2,m=2,r=2,q=9", "clos:n=0,m=1,r=1",
		"ring:k=4", "mesh", ":k=4", "fattree:=4", "clos:n=2,m=2,r=99999999",
	}
	for _, spec := range bad {
		if top, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) built %s; want error", spec, top.Name())
		}
	}
}

// FuzzRouteTable feeds hostile topology specs and raw builder wirings
// to the construction path: everything must surface as an error, never
// a panic, and a topology that does build must have a loop-free,
// partition-consistent route table whose leaf masks encode it.
func FuzzRouteTable(f *testing.F) {
	f.Add("fattree:k=4", uint64(1))
	f.Add("clos:n=2,m=3,r=2", uint64(2))
	f.Add("fattree:k=-8", uint64(3))
	f.Add("clos:n=4096,m=256,r=256", uint64(4))
	f.Add("fattree:k=4,k=4", uint64(5))
	f.Add("bogus:\x00=,,==", uint64(6))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		top, err := ParseSpec(spec)
		if err == nil {
			checkTopology(t, top)
		}

		// Random raw builder abuse: any wiring must either build into a
		// consistent topology or error out.
		rng := xrand.New(seed)
		b := NewBuilder("fuzz")
		nodes := 1 + rng.Intn(5)
		for i := 0; i < nodes; i++ {
			b.AddNode(1 + rng.Intn(4) - rng.Intn(2)) // occasionally invalid
		}
		pick := func() Endpoint {
			return Endpoint{Node: rng.Intn(nodes+1) - 1, Port: rng.Intn(5) - 1}
		}
		for i := rng.Intn(8); i > 0; i-- {
			b.Connect(pick(), pick())
		}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			ep := pick()
			b.BindIngress(ep.Node, ep.Port)
		}
		leaves := 1 + rng.Intn(4)
		for i := 0; i < leaves; i++ {
			ep := pick()
			b.BindEgress(ep.Node, ep.Port)
		}
		for i := rng.Intn(12); i > 0; i-- {
			b.Route(rng.Intn(nodes+1)-1, rng.Intn(leaves+1)-1, rng.Intn(5)-1)
		}
		if top, err := b.Build(); err == nil {
			checkTopology(t, top)
		}
	})
}

// checkTopology asserts the structural guarantees Build promises for
// any topology it returns.
func checkTopology(t *testing.T, top *Topology) {
	t.Helper()
	if top.Nodes() == 0 || top.Ingress() == 0 || top.Egress() == 0 {
		t.Fatalf("%s: built empty (%d nodes, %d in, %d out)", top.Name(), top.Nodes(), top.Ingress(), top.Egress())
	}
	// Every ingress node routes every leaf, loop-free, within MaxHops.
	// Bounded so a huge fuzz-built Clos doesn't turn one exec into
	// millions of walks.
	walks := 0
	seen := map[int]bool{}
	for i := 0; i < top.Ingress() && walks < 1<<14; i++ {
		node := top.IngressAt(i).Node
		if seen[node] {
			continue
		}
		seen[node] = true
		for leaf := 0; leaf < top.Egress() && walks < 1<<14; leaf++ {
			walks++
			if hops := walkRoute(t, top, node, leaf); hops > top.MaxHops() {
				t.Fatalf("%s: ingress node %d reaches leaf %d in %d hops > MaxHops %d",
					top.Name(), node, leaf, hops, top.MaxHops())
			}
		}
	}
	// The same bound keeps the word-form cross-check to a few million
	// word operations on the largest Clos a spec can ask for.
	checkRouteWords(t, top, xrand.New(uint64(top.Egress())), 2, false, 1<<16)
}
