package check

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/traffic"
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
