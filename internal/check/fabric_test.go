package check_test

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/fabric"
	"voqsim/internal/xrand"
)

// Fault-injection mutants for the fabric invariants: each test builds
// a tiny Clos fabric around a deliberately broken node and proves the
// checker catches the exact corruption class. A silent mutant here
// would mean the invariant battery is decorative.

// misrouteNode rewrites every delivery bound for output 0 to output 1
// — a crossbar wiring fault. The fabric trusts the node's Out port, so
// the copy surfaces at the wrong leaf and only the shadow model can
// notice.
type misrouteNode struct {
	*core.Switch
}

func (m *misrouteNode) Step(slot int64, deliver func(cell.Delivery)) {
	m.Switch.Step(slot, func(d cell.Delivery) {
		if d.Out == 0 {
			d.Out = 1
		}
		deliver(d)
	})
}

// dupSplitNode corrupts one split: the first delivery it sees is
// flipped to the sibling output port, so the sibling's leaf subset is
// enqueued twice on its link and the flipped copy's own subset is
// never sent anywhere. Copy counts at the node stay self-consistent —
// exactly the fault class only the F1 pending-multiset check can see.
type dupSplitNode struct {
	*core.Switch
	fired bool
}

func (m *dupSplitNode) Step(slot int64, deliver func(cell.Delivery)) {
	m.Switch.Step(slot, func(d cell.Delivery) {
		if !m.fired {
			m.fired = true
			d.Out ^= 1
		}
		deliver(d)
	})
}

// driveMutant admits one packet destined to dests and steps the
// checked fabric until the first violation (or the slot budget runs
// out), returning the violations.
func driveMutant(t *testing.T, fab *fabric.Fabric, dests ...int) []check.Violation {
	t.Helper()
	ck := check.Wrap(fab, check.Options{Every: 1})
	ck.Arrive(&cell.Packet{
		ID: 1, Input: 0, Arrival: 0,
		Dests: destset.FromMembers(fab.Topology().Egress(), dests...),
	})
	for slot := int64(0); slot < 32; slot++ {
		ck.Step(slot, nil)
		if len(ck.Violations()) > 0 {
			break
		}
	}
	return ck.Violations()
}

// TestMutantMisroutedCopy proves a copy surfacing at the wrong leaf
// trips the delivery-level membership invariant I3. Clos(2, 1, 1) is a
// 2-port ingress switch, one 1-port middle switch and a 2-port egress
// switch binding both leaves; only the egress switch, the third node
// New builds, misroutes.
func TestMutantMisroutedCopy(t *testing.T) {
	top, err := fabric.Clos(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(7).Split("switch", 0)
	node := 0
	fab, err := fabric.New(top, fabric.Config{}, func(ports int, r *xrand.Rand) fabric.Node {
		defer func() { node++ }()
		sw := core.NewSwitch(ports, &core.FIFOMS{}, r)
		if node == 2 {
			return &misrouteNode{sw}
		}
		return sw
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	vs := driveMutant(t, fab, 0) // destined to leaf 0, mutant delivers at 1
	if len(vs) == 0 {
		t.Fatal("misrouted copy went undetected")
	}
	found := false
	for _, v := range vs {
		if v.Invariant == "I3" && strings.Contains(v.Msg, "destined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an I3 membership violation, got %v", vs)
	}
}

// splitTop is Clos(1, 1, 2): two 1-port ingress switches feed one
// 2-port middle switch, which splits a two-leaf multicast between two
// 1-port egress switches, one leaf each. The middle switch is the only
// 2-port node.
func splitTop(t *testing.T) *fabric.Topology {
	t.Helper()
	top, err := fabric.Clos(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestMutantDuplicatedSplit proves a split that duplicates one child
// subset (and loses the other) trips the F1 conservation multiset
// check: the duplicated copy is buffered beyond what is owed, and the
// lost copy is owed but buffered nowhere.
func TestMutantDuplicatedSplit(t *testing.T) {
	root := xrand.New(7).Split("switch", 0)
	fab, err := fabric.New(splitTop(t), fabric.Config{}, func(ports int, r *xrand.Rand) fabric.Node {
		if ports == 2 {
			return &dupSplitNode{Switch: core.NewSwitch(ports, &core.FIFOMS{}, r)}
		}
		return core.NewSwitch(ports, &core.FIFOMS{}, r)
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	vs := driveMutant(t, fab, 0, 1) // a two-leaf multicast, split corrupted
	if len(vs) == 0 {
		t.Fatal("duplicated split went undetected")
	}
	var beyond, nowhere bool
	for _, v := range vs {
		if v.Invariant != "F1" {
			continue
		}
		if strings.Contains(v.Msg, "beyond what is owed") {
			beyond = true
		}
		if strings.Contains(v.Msg, "buffered nowhere") {
			nowhere = true
		}
	}
	if !beyond || !nowhere {
		t.Fatalf("expected F1 duplicate and loss violations, got %v", vs)
	}
}

// TestMutantControl runs the same split topology with honest nodes and
// the same drive: the battery must stay silent on correct behaviour,
// or the mutant detections above prove nothing.
func TestMutantControl(t *testing.T) {
	root := xrand.New(7).Split("switch", 0)
	fab, err := fabric.New(splitTop(t), fabric.Config{}, func(ports int, r *xrand.Rand) fabric.Node {
		return core.NewSwitch(ports, &core.FIFOMS{}, r)
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	if vs := driveMutant(t, fab, 0, 1); len(vs) != 0 {
		t.Fatalf("clean fabric reported violations: %v", vs)
	}
}
