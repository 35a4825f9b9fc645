// Package fabric composes single-stage switches into multi-stage
// datacenter fabrics (ROADMAP item 1): a topology graph whose nodes
// are ordinary crossbar switches, wired by bounded inter-stage links,
// with per-node routing tables that split a multicast packet's
// destination set into per-stage subtrees.
//
// The model is slot-synchronous and matches the single-switch engine's
// contract exactly, so a Fabric drops into switchsim.Runner and
// LiveRunner unchanged:
//
//   - a fabric packet arrives at a fabric ingress port and is mapped
//     onto the first-stage switch's local destination ports by that
//     node's route table;
//   - a delivery at stage s that is not yet at its leaf becomes a
//     buffered entry on the link to stage s+1, admissible from the
//     next slot (one slot of link latency per hop);
//   - links are bounded: a copy delivered into a full link is dropped
//     and counted, mirroring voqd's bounded/counted overload policy
//     (DESIGN.md §13) — drops never touch queue structure, so every
//     per-stage invariant keeps holding;
//   - a delivery out of a leaf-bound output port is an end-to-end
//     fabric delivery, reported with the fabric packet's identity so
//     delay tracking spans all stages.
//
// This file is the static half: Topology (the wiring and route
// tables), the arbitrary-graph Builder, the k-ary fat-tree and
// 3-stage Clos constructors, and the "fattree:k=4" spec parser the
// CLIs expose. Topology construction never panics on hostile input —
// every malformed spec or wiring is an error (FuzzRouteTable pins
// this).
package fabric

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"voqsim/internal/destset"
)

// Endpoint names one port of one node. The same (node, port) pair
// refers to the node's input side or output side depending on context:
// a link leaves From's output port and enters To's input port.
type Endpoint struct {
	Node int
	Port int
}

// Link is one bounded unidirectional inter-stage connection.
type Link struct {
	From Endpoint // output port of the upstream node
	To   Endpoint // input port of the downstream node
}

// Topology is a validated fabric wiring: nodes, links, the fabric's
// external ingress/egress port bindings, and per-node route tables.
// Build one with a Builder or a constructor (FatTree, Clos,
// ParseSpec); a Topology is immutable afterwards.
type Topology struct {
	name    string
	ports   []int      // per-node port count
	links   []Link     // fixed admission/scan order
	ingress []Endpoint // fabric ingress i -> node input port
	egress  []Endpoint // leaf e -> node output port
	route   [][]int32  // [node][leaf] -> local output port, -1 unreachable
	outLink [][]int32  // [node][outPort] -> link index, -1
	outLeaf [][]int32  // [node][outPort] -> leaf index, -1
	maxHops int        // longest route path, in links crossed

	// leafMask[node][out*words ...] has bit leaf set exactly when
	// route[node][leaf] == out; words = destset.WordsPerRow(leaves).
	leafMask [][]uint64
	words    int
}

// Name returns the topology's spec-style name, e.g. "fattree:k=4".
func (t *Topology) Name() string { return t.name }

// Nodes returns the number of switches in the fabric.
func (t *Topology) Nodes() int { return len(t.ports) }

// NodePorts returns the port count of node i.
func (t *Topology) NodePorts(i int) int { return t.ports[i] }

// NumLinks returns the number of inter-stage links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Ingress returns the number of fabric ingress ports.
func (t *Topology) Ingress() int { return len(t.ingress) }

// Egress returns the number of fabric egress ports (leaves).
func (t *Topology) Egress() int { return len(t.egress) }

// IngressAt returns the node input port bound to fabric ingress i.
func (t *Topology) IngressAt(i int) Endpoint { return t.ingress[i] }

// EgressAt returns the node output port bound to leaf e.
func (t *Topology) EgressAt(e int) Endpoint { return t.egress[e] }

// MaxHops returns the longest route path in links crossed (a packet
// delivered by the ingress node itself crosses 0 links).
func (t *Topology) MaxHops() int { return t.maxHops }

// RouteOut returns the local output port node uses for leaf, or -1
// when the leaf is unreachable from that node.
func (t *Topology) RouteOut(node, leaf int) int { return int(t.route[node][leaf]) }

// LocalDests fills dst (universe = node's port count) with the local
// output ports node uses for the given leaves. This is the fabric's
// tree-splitting primitive: several leaves routed through one output
// collapse into a single local destination, to be re-split downstream.
// Each leaf's output is set straight into dst's words.
func (t *Topology) LocalDests(node int, leaves *destset.Set, dst *destset.Set) {
	dst.Clear()
	r, dw := t.route[node], dst.Words()
	for wi, w := range leaves.Words() {
		for ; w != 0; w &= w - 1 {
			out := r[wi<<6|bits.TrailingZeros64(w)]
			dw[out>>6] |= 1 << uint(out&63)
		}
	}
}

// ChildLeaves fills dst with the members of leaves that node routes
// through local output out — the child destination subset of a split.
// Over all outputs the children partition the parent set (the split
// property test pins this).
func (t *Topology) ChildLeaves(node, out int, leaves, dst *destset.Set) {
	t.childLeaves(node, out, leaves.Words(), dst.Words())
}

// childLeaves is ChildLeaves over rows of leaf words, one AND per word,
// and reports whether the child subset is non-empty.
func (t *Topology) childLeaves(node, out int, leaves, dst []uint64) bool {
	mask := t.leafRow(node, out)
	var nz uint64
	for i, w := range leaves {
		dst[i] = w & mask[i]
		nz |= dst[i]
	}
	return nz != 0
}

// leafRow returns the leaves node routes through local output out.
func (t *Topology) leafRow(node, out int) []uint64 {
	return t.leafMask[node][out*t.words : (out+1)*t.words]
}

// Builder assembles an arbitrary fabric graph. Calls record the
// wiring; Build validates everything at once and returns the immutable
// Topology (or an error describing the first few defects — a Builder
// never panics on malformed input).
type Builder struct {
	name    string
	ports   []int
	links   []Link
	ingress []Endpoint
	egress  []Endpoint
	routes  []routeSpec
	errs    []string
}

type routeSpec struct {
	node, leaf, out int
}

// NewBuilder returns an empty Builder; name becomes Topology.Name().
func NewBuilder(name string) *Builder { return &Builder{name: name} }

const maxBuilderErrs = 8

func (b *Builder) errorf(format string, args ...any) {
	if len(b.errs) < maxBuilderErrs {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// AddNode declares a switch with the given port count and returns its
// node index.
func (b *Builder) AddNode(ports int) int {
	if ports <= 0 {
		b.errorf("node %d: non-positive port count %d", len(b.ports), ports)
		ports = 1
	}
	b.ports = append(b.ports, ports)
	return len(b.ports) - 1
}

// Connect wires a link from from's output port to to's input port.
func (b *Builder) Connect(from, to Endpoint) {
	b.links = append(b.links, Link{From: from, To: to})
}

// BindIngress binds the next fabric ingress port (index = call order)
// to the given node input port.
func (b *Builder) BindIngress(node, port int) {
	b.ingress = append(b.ingress, Endpoint{Node: node, Port: port})
}

// BindEgress binds the next fabric leaf (index = call order) to the
// given node output port.
func (b *Builder) BindEgress(node, port int) {
	b.egress = append(b.egress, Endpoint{Node: node, Port: port})
}

// Route declares that node forwards traffic for leaf through local
// output out.
func (b *Builder) Route(node, leaf, out int) {
	b.routes = append(b.routes, routeSpec{node: node, leaf: leaf, out: out})
}

func (b *Builder) nodeOK(n int) bool { return n >= 0 && n < len(b.ports) }

// Build validates the recorded wiring and returns the Topology.
func (b *Builder) Build() (*Topology, error) {
	if len(b.ports) == 0 {
		b.errorf("no nodes")
	}
	if len(b.ingress) == 0 {
		b.errorf("no ingress ports")
	}
	if len(b.egress) == 0 {
		b.errorf("no egress leaves")
	}

	// Input-side feed map: every node input port takes at most one
	// source (one link or one fabric ingress) — this is what makes the
	// one-arrival-per-input-per-slot discipline of the node switches
	// hold by construction.
	type inKey struct{ node, port int }
	inFeed := make(map[inKey]string)
	claimIn := func(node, port int, what string) {
		if !b.nodeOK(node) {
			b.errorf("%s: node %d out of range [0,%d)", what, node, len(b.ports))
			return
		}
		if port < 0 || port >= b.ports[node] {
			b.errorf("%s: input port %d out of range on %d-port node %d", what, port, b.ports[node], node)
			return
		}
		k := inKey{node, port}
		if prev, dup := inFeed[k]; dup {
			b.errorf("%s: node %d input port %d already fed by %s", what, node, port, prev)
			return
		}
		inFeed[k] = what
	}
	for i, ep := range b.ingress {
		claimIn(ep.Node, ep.Port, fmt.Sprintf("ingress %d", i))
	}
	for l, lk := range b.links {
		claimIn(lk.To.Node, lk.To.Port, fmt.Sprintf("link %d", l))
	}

	// Output-side use map: every node output port drives at most one
	// of a link or a leaf binding, so a node delivery resolves to
	// exactly one next hop.
	outUse := make(map[inKey]string)
	claimOut := func(node, port int, what string) {
		if !b.nodeOK(node) {
			b.errorf("%s: node %d out of range [0,%d)", what, node, len(b.ports))
			return
		}
		if port < 0 || port >= b.ports[node] {
			b.errorf("%s: output port %d out of range on %d-port node %d", what, port, b.ports[node], node)
			return
		}
		k := inKey{node, port}
		if prev, dup := outUse[k]; dup {
			b.errorf("%s: node %d output port %d already drives %s", what, node, port, prev)
			return
		}
		outUse[k] = what
	}
	for e, ep := range b.egress {
		claimOut(ep.Node, ep.Port, fmt.Sprintf("leaf %d", e))
	}
	for l, lk := range b.links {
		claimOut(lk.From.Node, lk.From.Port, fmt.Sprintf("link %d", l))
	}

	if len(b.errs) > 0 {
		return nil, b.buildError()
	}

	t := &Topology{
		name:    b.name,
		ports:   append([]int(nil), b.ports...),
		links:   append([]Link(nil), b.links...),
		ingress: append([]Endpoint(nil), b.ingress...),
		egress:  append([]Endpoint(nil), b.egress...),
	}
	nLeaves := len(t.egress)
	t.words = destset.WordsPerRow(nLeaves)
	t.route = make([][]int32, len(t.ports))
	t.leafMask = make([][]uint64, len(t.ports))
	t.outLink = make([][]int32, len(t.ports))
	t.outLeaf = make([][]int32, len(t.ports))
	for n, p := range t.ports {
		t.route[n] = make([]int32, nLeaves)
		for i := range t.route[n] {
			t.route[n][i] = -1
		}
		t.leafMask[n] = make([]uint64, p*t.words)
		t.outLink[n] = make([]int32, p)
		t.outLeaf[n] = make([]int32, p)
		for i := 0; i < p; i++ {
			t.outLink[n][i] = -1
			t.outLeaf[n][i] = -1
		}
	}
	for l, lk := range t.links {
		t.outLink[lk.From.Node][lk.From.Port] = int32(l)
	}
	for e, ep := range t.egress {
		t.outLeaf[ep.Node][ep.Port] = int32(e)
	}

	for _, r := range b.routes {
		if !b.nodeOK(r.node) {
			b.errorf("route: node %d out of range [0,%d)", r.node, len(b.ports))
			continue
		}
		if r.leaf < 0 || r.leaf >= nLeaves {
			b.errorf("route: leaf %d out of range [0,%d) at node %d", r.leaf, nLeaves, r.node)
			continue
		}
		if r.out < 0 || r.out >= t.ports[r.node] {
			b.errorf("route: output port %d out of range on %d-port node %d", r.out, t.ports[r.node], r.node)
			continue
		}
		if t.route[r.node][r.leaf] != -1 {
			b.errorf("route: node %d leaf %d routed twice (ports %d and %d)",
				r.node, r.leaf, t.route[r.node][r.leaf], r.out)
			continue
		}
		t.route[r.node][r.leaf] = int32(r.out)
		t.leafMask[r.node][r.out*t.words+r.leaf>>6] |= 1 << uint(r.leaf&63)
	}
	if len(b.errs) > 0 {
		return nil, b.buildError()
	}

	// Every route hop must resolve: the chosen output port either
	// binds exactly the routed leaf, or drives a link whose downstream
	// node also routes the leaf.
	for n := range t.ports {
		for leaf := 0; leaf < nLeaves; leaf++ {
			out := t.route[n][leaf]
			if out < 0 {
				continue
			}
			switch {
			case t.outLeaf[n][out] == int32(leaf):
				// terminal hop
			case t.outLeaf[n][out] >= 0:
				b.errorf("route: node %d sends leaf %d out port %d, which binds leaf %d",
					n, leaf, out, t.outLeaf[n][out])
			case t.outLink[n][out] >= 0:
				next := t.links[t.outLink[n][out]].To.Node
				if t.route[next][leaf] < 0 {
					b.errorf("route: node %d forwards leaf %d to node %d, which cannot route it",
						n, leaf, next)
				}
			default:
				b.errorf("route: node %d sends leaf %d out unwired port %d", n, leaf, out)
			}
		}
	}
	// Every ingress node must route every leaf: an arriving fabric
	// packet may carry any destination set.
	seen := map[int]bool{}
	for i, ep := range t.ingress {
		if seen[ep.Node] {
			continue
		}
		seen[ep.Node] = true
		for leaf := 0; leaf < nLeaves; leaf++ {
			if t.route[ep.Node][leaf] < 0 {
				b.errorf("ingress %d: node %d has no route for leaf %d", i, ep.Node, leaf)
				break
			}
		}
	}
	if len(b.errs) > 0 {
		return nil, b.buildError()
	}

	// Route paths must terminate: follow every (node, leaf) route hop
	// by hop; more hops than nodes means a routing loop. Record the
	// longest path while at it.
	for n := range t.ports {
		for leaf := 0; leaf < nLeaves; leaf++ {
			if t.route[n][leaf] < 0 {
				continue
			}
			hops, cur := 0, n
			for {
				out := t.route[cur][leaf]
				if t.outLeaf[cur][out] == int32(leaf) {
					break
				}
				cur = t.links[t.outLink[cur][out]].To.Node
				hops++
				if hops > len(t.ports) {
					b.errorf("route: loop forwarding leaf %d from node %d", leaf, n)
					return nil, b.buildError()
				}
			}
			if hops > t.maxHops {
				t.maxHops = hops
			}
		}
	}
	if len(b.errs) > 0 {
		return nil, b.buildError()
	}
	return t, nil
}

func (b *Builder) buildError() error {
	return fmt.Errorf("fabric: invalid topology %q: %s", b.name, strings.Join(b.errs, "; "))
}

// FatTree returns a k-ary fat-tree: k pods of k/2 edge and k/2
// aggregation switches plus (k/2)^2 core switches — k^2 + k^2/4 nodes
// carrying k^3/4 hosts, every switch k ports. k must be even, 2 <= k
// <= 16. Routing is deterministic destination-modulo spreading: leaf d
// always ascends via aggregation d mod k/2 and core (d mod k/2,
// (d/(k/2)) mod k/2), so every run is bit-reproducible.
func FatTree(k int) (*Topology, error) {
	if k < 2 || k > 16 || k%2 != 0 {
		return nil, fmt.Errorf("fabric: fat-tree arity k=%d (need even k in [2,16])", k)
	}
	h := k / 2
	b := NewBuilder(fmt.Sprintf("fattree:k=%d", k))
	edge := func(p, e int) int { return p*h + e }
	agg := func(p, a int) int { return k*h + p*h + a }
	core := func(i, j int) int { return 2*k*h + i*h + j }
	for n := 0; n < k*h*2+h*h; n++ {
		b.AddNode(k)
	}
	// Hosts, in leaf order: pod, then edge switch, then port.
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for x := 0; x < h; x++ {
				b.BindIngress(edge(p, e), x)
				b.BindEgress(edge(p, e), x)
			}
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				// edge <-> aggregation, both directions.
				b.Connect(Endpoint{edge(p, e), h + a}, Endpoint{agg(p, a), e})
				b.Connect(Endpoint{agg(p, a), e}, Endpoint{edge(p, e), h + a})
			}
		}
		for a := 0; a < h; a++ {
			for j := 0; j < h; j++ {
				// aggregation <-> core, both directions.
				b.Connect(Endpoint{agg(p, a), h + j}, Endpoint{core(a, j), p})
				b.Connect(Endpoint{core(a, j), p}, Endpoint{agg(p, a), h + j})
			}
		}
	}
	leaves := k * h * h
	for d := 0; d < leaves; d++ {
		pd, ed, xd := d/(h*h), (d/h)%h, d%h
		for p := 0; p < k; p++ {
			for e := 0; e < h; e++ {
				if p == pd && e == ed {
					b.Route(edge(p, e), d, xd)
				} else {
					b.Route(edge(p, e), d, h+d%h)
				}
			}
			for a := 0; a < h; a++ {
				if p == pd {
					b.Route(agg(p, a), d, ed)
				} else {
					b.Route(agg(p, a), d, h+(d/h)%h)
				}
			}
		}
		for i := 0; i < h; i++ {
			for j := 0; j < h; j++ {
				b.Route(core(i, j), d, pd)
			}
		}
	}
	return b.Build()
}

// Clos returns a symmetric 3-stage Clos fabric: r ingress switches of
// n external ports each, m middle switches, r egress switches — r*n
// fabric ports end to end. Middle selection is leaf mod m, so routing
// is deterministic. Bounds: n, m, r >= 1, r*n <= 4096, nodes sized
// max(n, m) (input and middle stages) and r (middle stage) ports.
func Clos(n, m, r int) (*Topology, error) {
	if n < 1 || m < 1 || r < 1 {
		return nil, fmt.Errorf("fabric: clos n=%d m=%d r=%d (need all >= 1)", n, m, r)
	}
	if r*n > 4096 || m > 256 || r > 256 {
		return nil, fmt.Errorf("fabric: clos n=%d m=%d r=%d too large (r*n <= 4096, m,r <= 256)", n, m, r)
	}
	b := NewBuilder(fmt.Sprintf("clos:n=%d,m=%d,r=%d", n, m, r))
	edgePorts := n
	if m > n {
		edgePorts = m
	}
	in := func(i int) int { return i }
	mid := func(j int) int { return r + j }
	out := func(e int) int { return r + m + e }
	for i := 0; i < r; i++ {
		b.AddNode(edgePorts)
	}
	for j := 0; j < m; j++ {
		b.AddNode(r)
	}
	for e := 0; e < r; e++ {
		b.AddNode(edgePorts)
	}
	for i := 0; i < r; i++ {
		for t := 0; t < n; t++ {
			b.BindIngress(in(i), t)
		}
		for j := 0; j < m; j++ {
			b.Connect(Endpoint{in(i), j}, Endpoint{mid(j), i})
		}
	}
	for j := 0; j < m; j++ {
		for e := 0; e < r; e++ {
			b.Connect(Endpoint{mid(j), e}, Endpoint{out(e), j})
		}
	}
	for e := 0; e < r; e++ {
		for t := 0; t < n; t++ {
			b.BindEgress(out(e), t)
		}
	}
	leaves := r * n
	for l := 0; l < leaves; l++ {
		for i := 0; i < r; i++ {
			b.Route(in(i), l, l%m)
		}
		for j := 0; j < m; j++ {
			b.Route(mid(j), l, l/n)
		}
		b.Route(out(l/n), l, l%n)
	}
	return b.Build()
}

// ParseSpec builds a topology from its CLI spec string:
//
//	fattree:k=K              k-ary fat-tree (even K in [2,16])
//	clos:n=N,m=M,r=R         3-stage Clos (r*n external ports)
//
// Hostile specs error, never panic (FuzzRouteTable pins this).
func ParseSpec(spec string) (*Topology, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	params, err := parseParams(rest)
	if err != nil {
		return nil, fmt.Errorf("fabric: spec %q: %w", spec, err)
	}
	switch kind {
	case "fattree":
		if err := wantKeys(params, "k"); err != nil {
			return nil, fmt.Errorf("fabric: spec %q: %w", spec, err)
		}
		return FatTree(params["k"])
	case "clos":
		if err := wantKeys(params, "n", "m", "r"); err != nil {
			return nil, fmt.Errorf("fabric: spec %q: %w", spec, err)
		}
		return Clos(params["n"], params["m"], params["r"])
	default:
		return nil, fmt.Errorf("fabric: spec %q: unknown topology %q (want fattree or clos)", spec, kind)
	}
}

func parseParams(s string) (map[string]int, error) {
	out := map[string]int{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("malformed parameter %q (want key=value)", part)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %v", part, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate parameter %q", key)
		}
		out[key] = v
	}
	return out, nil
}

func wantKeys(params map[string]int, keys ...string) error {
	for _, k := range keys {
		if _, ok := params[k]; !ok {
			return fmt.Errorf("missing parameter %q", k)
		}
	}
	if len(params) != len(keys) {
		got := make([]string, 0, len(params))
		for k := range params {
			got = append(got, k)
		}
		sort.Strings(got)
		return fmt.Errorf("unexpected parameters %v (want %v)", got, keys)
	}
	return nil
}
