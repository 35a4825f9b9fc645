package check

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/eslip"
	"voqsim/internal/oq"
	"voqsim/internal/sched/islip"
	"voqsim/internal/sched/lqfms"
	"voqsim/internal/sched/pim"
	"voqsim/internal/sched/tdrr"
	"voqsim/internal/tatra"
	"voqsim/internal/traffic"
	"voqsim/internal/wba"
	"voqsim/internal/xrand"
)

// drive runs sw wrapped in a checker on seeded Bernoulli traffic and
// returns the checker and the delivery log.
func drive(t *testing.T, sw Switch, n int, slots int64, seed uint64, opt Options) (*Checker, []cell.Delivery) {
	t.Helper()
	pat, err := traffic.BernoulliAtLoad(0.7, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	return drivePattern(sw, pat, n, slots, seed, opt)
}

// drivePattern is drive under a caller-chosen traffic pattern.
func drivePattern(sw Switch, pat traffic.Pattern, n int, slots int64, seed uint64, opt Options) (*Checker, []cell.Delivery) {
	root := xrand.New(seed)
	ck := Wrap(sw, opt)
	sources := traffic.BuildSources(pat, n, root.Split("traffic", 0))
	var id cell.PacketID
	var log []cell.Delivery
	for slot := int64(0); slot < slots; slot++ {
		for in, src := range sources {
			if dests := src.Next(slot); dests != nil {
				ck.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: dests})
				id++
			}
		}
		ck.Step(slot, func(d cell.Delivery) { log = append(log, d) })
	}
	return ck, log
}

// TestCleanRunAllArchitectures pins that a correct switch of every
// architecture in the roster passes the full invariant catalogue, and
// that profile detection classifies each one as intended.
func TestCleanRunAllArchitectures(t *testing.T) {
	const n, slots, seed = 8, 300, 7
	cases := []struct {
		name    string
		profile string
		build   func(root *xrand.Rand) Switch
	}{
		{"fifoms", "core/fifoms", func(root *xrand.Rand) Switch {
			return core.NewSwitch(n, &core.FIFOMS{}, root)
		}},
		{"fifoms-nosplit", "core/fifoms-nosplit", func(root *xrand.Rand) Switch {
			return core.NewSwitch(n, &core.FIFOMS{NoFanoutSplitting: true}, root)
		}},
		{"islip", "core/islip", func(root *xrand.Rand) Switch {
			return core.NewSwitch(n, islip.New(), root)
		}},
		{"pim", "core/pim", func(root *xrand.Rand) Switch {
			return core.NewSwitch(n, pim.New(), root)
		}},
		{"lqfms", "core/lqfms", func(root *xrand.Rand) Switch {
			return core.NewSwitch(n, lqfms.New(), root)
		}},
		{"2drr", "core/2drr", func(root *xrand.Rand) Switch {
			return core.NewSwitch(n, tdrr.New(), root)
		}},
		{"eslip", "eslip", func(root *xrand.Rand) Switch { return eslip.New(n) }},
		{"wba", "wba", func(root *xrand.Rand) Switch { return wba.New(n, root) }},
		{"tatra", "generic", func(root *xrand.Rand) Switch { return tatra.New(n) }},
		{"oqfifo", "generic", func(root *xrand.Rand) Switch { return oq.New(n) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := xrand.New(seed)
			ck, _ := drive(t, tc.build(root.Split("switch", 0)), n, slots, seed, Options{})
			if got := ck.Profile(); !strings.HasPrefix(got, tc.profile) {
				t.Errorf("profile = %q, want prefix %q", got, tc.profile)
			}
			if err := ck.Err(); err != nil {
				t.Fatalf("clean %s run flagged: %v", tc.name, err)
			}
		})
	}
}

// TestCheckerPassivity pins the checker's core guarantee: wrapping a
// switch — observer attached and all — changes no delivery. The other
// architectures get the same pin through Differential's reference
// shape; FIFOMS's reference there is the oracle, so pin it here.
func TestCheckerPassivity(t *testing.T) {
	const n, slots, seed = 8, 400, 11
	pat, err := traffic.BernoulliAtLoad(0.8, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	runLog := func(checked bool) []cell.Delivery {
		root := xrand.New(seed)
		var sw Switch = core.NewSwitch(n, &core.FIFOMS{}, root.Split("switch", 0))
		if checked {
			sw = Wrap(sw, Options{})
		}
		sources := traffic.BuildSources(pat, n, root.Split("traffic", 0))
		var id cell.PacketID
		var log []cell.Delivery
		for slot := int64(0); slot < slots; slot++ {
			for in, src := range sources {
				if dests := src.Next(slot); dests != nil {
					sw.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: dests})
					id++
				}
			}
			sw.Step(slot, func(d cell.Delivery) { log = append(log, d) })
		}
		return log
	}
	if err := compareDeliveries(runLog(false), runLog(true)); err != nil {
		t.Fatalf("checked run diverged from unchecked: %v", err)
	}
}

// TestCheckerSparseDeepCheck pins that Every > 1 still runs the
// delivery-level checks every slot and stays clean.
func TestCheckerSparseDeepCheck(t *testing.T) {
	root := xrand.New(3)
	ck, _ := drive(t, core.NewSwitch(8, &core.FIFOMS{}, root.Split("switch", 0)),
		8, 300, 3, Options{Every: 17})
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorFormatting pins the aggregate error rendering.
func TestErrorFormatting(t *testing.T) {
	e := &Error{
		Violations: []Violation{{Slot: 5, Invariant: "I1", Msg: "output 2 delivered twice"}},
		Total:      3,
	}
	got := e.Error()
	for _, want := range []string{"3 invariant violations", "slot 5", "I1", "2 more"} {
		if !strings.Contains(got, want) {
			t.Errorf("error %q missing %q", got, want)
		}
	}
}
