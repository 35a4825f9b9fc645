// Package fabric composes single-stage switches into multi-stage
// datacenter fabrics: a topology graph whose nodes are ordinary
// crossbar switches, wired by bounded inter-stage links, with per-node
// routing tables that split a multicast packet's destination set into
// per-stage subtrees.
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
// tables), the k-ary fat-tree and 3-stage Clos generators that fill
// it, and the "fattree:k=4" spec parser the CLIs expose. Topology
// construction never panics on hostile input — every malformed spec
// is an error (FuzzRouteTable pins this).
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

// Topology is a fabric wiring: nodes, links, the fabric's external
// ingress/egress port bindings, and per-node route tables. FatTree,
// Clos and ParseSpec build one; a Topology is immutable afterwards.
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
	// A node holds rows only through its highest routed output (a Clos
	// egress switch of max(n, m) ports routes through n), and leafRow
	// reads the missing ones as noLeaves.
	leafMask [][]uint64
	noLeaves []uint64
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

// MaxHops returns the longest route path in links crossed (a packet
// delivered by the ingress node itself crosses 0 links).
func (t *Topology) MaxHops() int { return t.maxHops }

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

// childLeaves fills dst with the members of leaves, both rows of leaf
// words, that node routes through local output out — the child
// destination subset of a split — one AND per word, and reports
// whether the child subset is non-empty. Over all outputs the children
// partition the parent set (TestSplitPartition pins this).
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
	m := t.leafMask[node]
	if (out+1)*t.words > len(m) {
		return t.noLeaves
	}
	return m[out*t.words : (out+1)*t.words]
}

// newTopology returns a fabric of len(ports) nodes with the given port
// counts and leaves leaves, wired to nothing yet: every route is -1 and
// no port drives a link or a leaf. The generators fill it in, in their
// own loop order, through connect, bindIngress, bindEgress and
// setRoute, and end with buildMasks.
func newTopology(name string, ports []int, leaves, maxHops int) *Topology {
	t := &Topology{
		name:     name,
		ports:    ports,
		maxHops:  maxHops,
		words:    destset.WordsPerRow(leaves),
		route:    make([][]int32, len(ports)),
		outLink:  make([][]int32, len(ports)),
		outLeaf:  make([][]int32, len(ports)),
		leafMask: make([][]uint64, len(ports)),
	}
	t.noLeaves = make([]uint64, t.words)
	for n, p := range ports {
		t.route[n] = unset(leaves)
		t.outLink[n] = unset(p)
		t.outLeaf[n] = unset(p)
	}
	return t
}

// unset returns n entries of -1.
func unset(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// connect wires the next link from from's output port to to's input
// port.
func (t *Topology) connect(from, to Endpoint) {
	t.outLink[from.Node][from.Port] = int32(len(t.links))
	t.links = append(t.links, Link{From: from, To: to})
}

// bindIngress binds the next fabric ingress to node's input port.
func (t *Topology) bindIngress(node, port int) {
	t.ingress = append(t.ingress, Endpoint{Node: node, Port: port})
}

// bindEgress binds the next leaf to node's output port.
func (t *Topology) bindEgress(node, port int) {
	t.outLeaf[node][port] = int32(len(t.egress))
	t.egress = append(t.egress, Endpoint{Node: node, Port: port})
}

// setRoute makes node forward leaf through local output out.
func (t *Topology) setRoute(node, leaf, out int) { t.route[node][leaf] = int32(out) }

// buildMasks derives every node's leaf masks from its finished route
// table, with rows through the node's highest routed output only.
func (t *Topology) buildMasks() {
	for n, r := range t.route {
		last := int32(-1)
		for _, out := range r {
			last = max(last, out)
		}
		m := make([]uint64, int(last+1)*t.words)
		for leaf, out := range r {
			if out >= 0 {
				m[int(out)*t.words+leaf>>6] |= 1 << uint(leaf&63)
			}
		}
		t.leafMask[n] = m
	}
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
	edge := func(p, e int) int { return p*h + e }
	agg := func(p, a int) int { return k*h + p*h + a }
	core := func(i, j int) int { return 2*k*h + i*h + j }
	ports := make([]int, k*h*2+h*h)
	for n := range ports {
		ports[n] = k
	}
	leaves := k * h * h
	// The longest route, between pods, climbs edge, aggregation and
	// core and comes down the same way: four links, for every k.
	t := newTopology(fmt.Sprintf("fattree:k=%d", k), ports, leaves, 4)
	// Hosts, in leaf order: pod, then edge switch, then port.
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for x := 0; x < h; x++ {
				t.bindIngress(edge(p, e), x)
				t.bindEgress(edge(p, e), x)
			}
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				// edge <-> aggregation, both directions.
				t.connect(Endpoint{edge(p, e), h + a}, Endpoint{agg(p, a), e})
				t.connect(Endpoint{agg(p, a), e}, Endpoint{edge(p, e), h + a})
			}
		}
		for a := 0; a < h; a++ {
			for j := 0; j < h; j++ {
				// aggregation <-> core, both directions.
				t.connect(Endpoint{agg(p, a), h + j}, Endpoint{core(a, j), p})
				t.connect(Endpoint{core(a, j), p}, Endpoint{agg(p, a), h + j})
			}
		}
	}
	for d := 0; d < leaves; d++ {
		pd, ed, xd := d/(h*h), (d/h)%h, d%h
		for p := 0; p < k; p++ {
			for e := 0; e < h; e++ {
				if p == pd && e == ed {
					t.setRoute(edge(p, e), d, xd)
				} else {
					t.setRoute(edge(p, e), d, h+d%h)
				}
			}
			for a := 0; a < h; a++ {
				if p == pd {
					t.setRoute(agg(p, a), d, ed)
				} else {
					t.setRoute(agg(p, a), d, h+(d/h)%h)
				}
			}
		}
		for i := 0; i < h; i++ {
			for j := 0; j < h; j++ {
				t.setRoute(core(i, j), d, pd)
			}
		}
	}
	t.buildMasks()
	return t, nil
}

// Clos returns a symmetric 3-stage Clos fabric: r ingress switches of
// n external ports each, m middle switches, r egress switches — r*n
// fabric ports end to end. Middle selection is leaf mod m, so routing
// is deterministic. Bounds: n, m, r >= 1, r*n <= 4096, nodes sized
// max(n, m) (input and output stages) and r (middle stage) ports.
func Clos(n, m, r int) (*Topology, error) {
	if n < 1 || m < 1 || r < 1 {
		return nil, fmt.Errorf("fabric: clos n=%d m=%d r=%d (need all >= 1)", n, m, r)
	}
	if r*n > 4096 || m > 256 || r > 256 {
		return nil, fmt.Errorf("fabric: clos n=%d m=%d r=%d too large (r*n <= 4096, m,r <= 256)", n, m, r)
	}
	edgePorts := n
	if m > n {
		edgePorts = m
	}
	in := func(i int) int { return i }
	mid := func(j int) int { return r + j }
	out := func(e int) int { return r + m + e }
	ports := make([]int, 2*r+m)
	for i := range ports {
		ports[i] = edgePorts
	}
	for j := 0; j < m; j++ {
		ports[mid(j)] = r
	}
	leaves := r * n
	// Every route crosses exactly the two links in -> mid -> out.
	t := newTopology(fmt.Sprintf("clos:n=%d,m=%d,r=%d", n, m, r), ports, leaves, 2)
	for i := 0; i < r; i++ {
		for p := 0; p < n; p++ {
			t.bindIngress(in(i), p)
		}
		for j := 0; j < m; j++ {
			t.connect(Endpoint{in(i), j}, Endpoint{mid(j), i})
		}
	}
	for j := 0; j < m; j++ {
		for e := 0; e < r; e++ {
			t.connect(Endpoint{mid(j), e}, Endpoint{out(e), j})
		}
	}
	for e := 0; e < r; e++ {
		for p := 0; p < n; p++ {
			t.bindEgress(out(e), p)
		}
	}
	for l := 0; l < leaves; l++ {
		for i := 0; i < r; i++ {
			t.setRoute(in(i), l, l%m)
		}
		for j := 0; j < m; j++ {
			t.setRoute(mid(j), l, l/n)
		}
		t.setRoute(out(l/n), l, l%n)
	}
	t.buildMasks()
	return t, nil
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
