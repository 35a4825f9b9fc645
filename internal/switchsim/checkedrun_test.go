package switchsim

import (
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/core"
	"voqsim/internal/tatra"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// TestCheckedRunMatchesRun pins NewChecked's contract: the measured
// Results of a checked run are identical — field for field, including
// the optional rounds and buffer-bytes series — to an unchecked run of
// the same seed, and a correct switch draws a nil verdict.
func TestCheckedRunMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		build func(n int, root *xrand.Rand) Switch
	}{
		// core.Switch implements both optional reporters.
		{"fifoms", func(n int, root *xrand.Rand) Switch {
			return core.NewSwitch(n, &core.FIFOMS{}, root)
		}},
		// tatra.Switch implements neither.
		{"tatra", func(n int, root *xrand.Rand) Switch {
			return tatra.New(n)
		}},
	}
	const n, seed = 8, 21
	pat, err := traffic.BernoulliAtLoad(0.7, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Slots: 400, Seed: seed}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := xrand.New(seed)
			plain := New(tc.build(n, root.Split("switch", 0)), pat, cfg, root.Split("traffic", 0)).
				Run(tc.name)

			root = xrand.New(seed)
			r, ck := NewChecked(tc.build(n, root.Split("switch", 0)),
				pat, cfg, root.Split("traffic", 0), check.Options{})
			checked := r.Run(tc.name)
			if err := ck.Err(); err != nil {
				t.Fatalf("checker verdict: %v", err)
			}
			if ck.Total() != 0 {
				t.Fatalf("violations on a correct switch: %v", ck.Violations())
			}
			if checked != plain {
				t.Fatalf("checked Results diverge:\nchecked %+v\nplain   %+v", checked, plain)
			}
		})
	}
}

// TestCheckedRunCatchesMutant pins that a faulty switch draws a checker
// verdict through NewChecked's runner.
func TestCheckedRunCatchesMutant(t *testing.T) {
	const n, seed = 4, 3
	pat, err := traffic.BernoulliAtLoad(0.6, 0.4, n)
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(seed)
	sw := &lastFlipper{core.NewSwitch(n, &core.FIFOMS{}, root.Split("switch", 0))}
	r, ck := NewChecked(sw, pat, Config{Slots: 200, Seed: seed},
		root.Split("traffic", 0), check.Options{})
	r.Run("mutant")
	if ck.Err() == nil || ck.Total() == 0 {
		t.Fatal("mutant run produced no checker verdict")
	}
}

// lastFlipper clears every delivery's Last bit — the "skipped fanout
// decrement" bug of ISSUE 3 — while unwrapping to the real switch for
// profile detection.
type lastFlipper struct{ Switch }

func (f *lastFlipper) CheckUnwrap() check.Switch { return f.Switch }
func (f *lastFlipper) Step(slot int64, deliver func(d cell.Delivery)) {
	f.Switch.Step(slot, func(d cell.Delivery) {
		d.Last = false
		deliver(d)
	})
}
