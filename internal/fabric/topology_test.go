package fabric

import (
	"fmt"
	"testing"

	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// walkRoute follows the route table from node toward leaf and returns
// the number of links crossed.
func walkRoute(t *testing.T, top *Topology, node, leaf int) int {
	t.Helper()
	hops, cur := 0, node
	for {
		out := top.route[cur][leaf]
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
			dst := top.egress[leaf].Node
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
// on: at every node, the child leaf subsets produced by childLeaves
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
				if top.route[node][leaf] >= 0 {
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
					top.childLeaves(node, out, leaves.Words(), child.Words())
					if !local.Contains(out) {
						if !child.Empty() {
							t.Fatalf("%s node %d: port %d not in LocalDests but childLeaves %v",
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
						if int(top.route[node][leaf]) != out {
							t.Fatalf("%s node %d: leaf %d in subset of port %d, routed to %d",
								top.Name(), node, leaf, out, top.route[node][leaf])
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

// refLocalDests and refChildren are the per-leaf route-table loops
// that the word forms replaced, kept as their reference.
func refLocalDests(top *Topology, node int, leaves, dst *destset.Set) {
	dst.Clear()
	leaves.ForEach(func(leaf int) { dst.Add(int(top.route[node][leaf])) })
}

func refChildren(top *Topology, node, out int, leaves, dst *destset.Set) {
	dst.Clear()
	leaves.ForEach(func(leaf int) {
		if int(top.route[node][leaf]) == out {
			dst.Add(leaf)
		}
	})
}

// checkRouteWords pins LocalDests and childLeaves to the reference
// loops at every node of top, until budget leaf visits are spent: on
// the empty set, the node's routed leaves, random subsets of them and,
// with singletons, each routed leaf alone. childLeaves also gets the
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
			if top.route[node][leaf] >= 0 {
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
				top.childLeaves(node, out, leaves.Words(), got.Words())
				refChildren(top, node, out, leaves, want)
				if !got.Equal(want) {
					t.Fatalf("%s node %d port %d, %s leaves %v: childLeaves %v, route table says %v",
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

// TestRouteWordsMatchRouteTable pins the per-output leaf masks the
// generators derive to the route table they encode: the word forms of
// LocalDests and childLeaves agree with the per-leaf loops on every node of fat
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

// FuzzRouteTable feeds hostile topology specs to the construction
// path: everything must surface as an error, never a panic, and a
// topology that does build must meet every generator invariant and
// have leaf masks that encode its route table.
func FuzzRouteTable(f *testing.F) {
	f.Add("fattree:k=4")
	f.Add("clos:n=2,m=3,r=2")
	f.Add("fattree:k=-8")
	f.Add("clos:n=4096,m=256,r=256")
	f.Add("fattree:k=4,k=4")
	f.Add("bogus:\x00=,,==")
	f.Fuzz(func(t *testing.T, spec string) {
		top, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := checkGenerated(top); err != nil {
			t.Fatal(err)
		}
		// The budget keeps the word-form cross-check to a few million
		// word operations on the largest Clos a spec can ask for.
		checkRouteWords(t, top, xrand.New(uint64(top.Egress())), 2, false, 1<<16)
	})
}

// TestGeneratorInvariants holds every topology a spec can name to the
// structural guarantees the slot loop relies on: every fat tree, and a
// grid of Clos shapes from the one-port (1,1,1) to the largest a spec
// accepts.
func TestGeneratorInvariants(t *testing.T) {
	check := func(top *Topology, err error) {
		t.Helper()
		if err == nil {
			err = checkGenerated(top)
		}
		if err != nil {
			t.Error(err)
		}
	}
	for k := 2; k <= 16; k += 2 {
		check(FatTree(k))
	}
	for _, n := range []int{1, 2, 3, 8} {
		for _, m := range []int{1, 2, 5} {
			for _, r := range []int{1, 2, 4, 7} {
				check(Clos(n, m, r))
			}
		}
	}
	// n*r = 4096 and m = 256: one node of 4096 ports each side, and
	// the most nodes (768) and links (131072) a spec can ask for.
	check(Clos(4096, 256, 1))
	check(Clos(16, 256, 256))
}

// checkGenerated reports the first structural defect of top: a node
// input fed twice, an output driving two things, a route hop that
// resolves to nothing, an ingress node missing a leaf, a routing loop,
// a MaxHops other than the longest route, or a leaf mask that
// disagrees with the route table. FatTree and Clos guarantee all of
// this by construction; nothing checks it at run time.
func checkGenerated(top *Topology) error {
	nodes, leaves := top.Nodes(), top.Egress()
	if nodes == 0 || top.Ingress() == 0 || leaves == 0 {
		return fmt.Errorf("%s: empty (%d nodes, %d in, %d out)", top.Name(), nodes, top.Ingress(), leaves)
	}
	inRange := func(ep Endpoint) bool {
		return ep.Node >= 0 && ep.Node < nodes && ep.Port >= 0 && ep.Port < top.NodePorts(ep.Node)
	}
	// Each node input takes at most one feed, an ingress or a link:
	// the one-arrival-per-input-per-slot discipline of the nodes.
	fed := map[Endpoint]string{}
	feed := func(ep Endpoint, what string) error {
		if !inRange(ep) {
			return fmt.Errorf("%s: %s feeds input %v out of range", top.Name(), what, ep)
		}
		if prev, dup := fed[ep]; dup {
			return fmt.Errorf("%s: node %d input %d fed by %s and %s", top.Name(), ep.Node, ep.Port, prev, what)
		}
		fed[ep] = what
		return nil
	}
	// Each node output drives at most one link or leaf, and the
	// outLink/outLeaf tables name exactly that one.
	drives := map[Endpoint]string{}
	drive := func(ep Endpoint, what string, table int32, want int) error {
		if !inRange(ep) {
			return fmt.Errorf("%s: %s leaves output %v out of range", top.Name(), what, ep)
		}
		if prev, dup := drives[ep]; dup {
			return fmt.Errorf("%s: node %d output %d drives %s and %s", top.Name(), ep.Node, ep.Port, prev, what)
		}
		if int(table) != want {
			return fmt.Errorf("%s: node %d output %d drives %s, its table says %d", top.Name(), ep.Node, ep.Port, what, table)
		}
		drives[ep] = what
		return nil
	}
	for i, ep := range top.ingress {
		if err := feed(ep, fmt.Sprintf("ingress %d", i)); err != nil {
			return err
		}
	}
	for l, lk := range top.links {
		what := fmt.Sprintf("link %d", l)
		if err := feed(lk.To, what); err != nil {
			return err
		}
		if !inRange(lk.From) {
			return fmt.Errorf("%s: %s leaves output %v out of range", top.Name(), what, lk.From)
		}
		if err := drive(lk.From, what, top.outLink[lk.From.Node][lk.From.Port], l); err != nil {
			return err
		}
	}
	for e, ep := range top.egress {
		what := fmt.Sprintf("leaf %d", e)
		if !inRange(ep) {
			return fmt.Errorf("%s: %s bound to output %v out of range", top.Name(), what, ep)
		}
		if err := drive(ep, what, top.outLeaf[ep.Node][ep.Port], e); err != nil {
			return err
		}
	}
	for n := 0; n < nodes; n++ {
		for p := 0; p < top.NodePorts(n); p++ {
			if _, ok := drives[Endpoint{n, p}]; !ok && (top.outLink[n][p] >= 0 || top.outLeaf[n][p] >= 0) {
				return fmt.Errorf("%s: node %d output %d drives nothing, its tables say link %d, leaf %d",
					top.Name(), n, p, top.outLink[n][p], top.outLeaf[n][p])
			}
		}
	}

	// Every routed hop resolves: to the port that binds the leaf, or
	// to a link whose downstream node routes it too.
	for n := 0; n < nodes; n++ {
		for leaf := 0; leaf < leaves; leaf++ {
			out := int(top.route[n][leaf])
			switch {
			case out < 0:
			case out >= top.NodePorts(n):
				return fmt.Errorf("%s: node %d routes leaf %d out of port %d of %d", top.Name(), n, leaf, out, top.NodePorts(n))
			case top.outLeaf[n][out] == int32(leaf):
			case top.outLeaf[n][out] >= 0:
				return fmt.Errorf("%s: node %d sends leaf %d out port %d, which binds leaf %d",
					top.Name(), n, leaf, out, top.outLeaf[n][out])
			case top.outLink[n][out] >= 0:
				if next := top.links[top.outLink[n][out]].To.Node; top.route[next][leaf] < 0 {
					return fmt.Errorf("%s: node %d forwards leaf %d to node %d, which cannot route it",
						top.Name(), n, leaf, next)
				}
			default:
				return fmt.Errorf("%s: node %d sends leaf %d out unwired port %d", top.Name(), n, leaf, out)
			}
		}
	}
	// An arriving packet may carry any destination set.
	for i, ep := range top.ingress {
		for leaf := 0; leaf < leaves; leaf++ {
			if top.route[ep.Node][leaf] < 0 {
				return fmt.Errorf("%s: ingress %d: node %d has no route for leaf %d", top.Name(), i, ep.Node, leaf)
			}
		}
	}
	// No route loops, and MaxHops is the longest route.
	longest := 0
	for n := 0; n < nodes; n++ {
		for leaf := 0; leaf < leaves; leaf++ {
			if top.route[n][leaf] < 0 {
				continue
			}
			hops, cur := 0, n
			for out := top.route[cur][leaf]; top.outLeaf[cur][out] != int32(leaf); out = top.route[cur][leaf] {
				cur = top.links[top.outLink[cur][out]].To.Node
				if hops++; hops > nodes {
					return fmt.Errorf("%s: route loop forwarding leaf %d from node %d", top.Name(), leaf, n)
				}
			}
			longest = max(longest, hops)
		}
	}
	if top.MaxHops() != longest {
		return fmt.Errorf("%s: MaxHops %d, longest route %d", top.Name(), top.MaxHops(), longest)
	}
	// Bit (node, out, leaf) of the leaf masks is set iff the node
	// routes leaf out of out, where an output without a mask row reads
	// as empty, and a node's last row routes some leaf.
	for n := 0; n < nodes; n++ {
		want := make([]uint64, top.NodePorts(n)*top.words)
		last := -1
		for leaf := 0; leaf < leaves; leaf++ {
			if out := int(top.route[n][leaf]); out >= 0 {
				want[out*top.words+leaf>>6] |= 1 << uint(leaf&63)
				last = max(last, out)
			}
		}
		if len(top.leafMask[n]) != (last+1)*top.words {
			return fmt.Errorf("%s: node %d has %d leaf mask words, highest routed output %d", top.Name(), n, len(top.leafMask[n]), last)
		}
		for out := 0; out < top.NodePorts(n); out++ {
			for i, w := range top.leafRow(n, out) {
				if w != want[out*top.words+i] {
					return fmt.Errorf("%s: node %d output %d leaf mask word %d is %#x, the route table says %#x",
						top.Name(), n, out, i, w, want[out*top.words+i])
				}
			}
		}
	}
	return nil
}
