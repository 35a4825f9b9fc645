package roster

import (
	"slices"
	"testing"

	"voqsim/internal/experiment"
)

// TestRoster pins the roster's shape: one entry per architecture and
// family, each name unique and each resolvable by name, so a run the
// batteries pin is a run the CLIs can make.
func TestRoster(t *testing.T) {
	all := All()
	if len(all) != len(experiment.AllAlgorithms())+2 {
		t.Fatalf("roster has %d entries, want experiment.AllAlgorithms() plus cioq-s2 and fifoms-r2", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if seen[a.Name] {
			t.Errorf("%s is on the roster twice", a.Name)
		}
		seen[a.Name] = true
		if _, err := experiment.ByName(a.Name); err != nil {
			t.Errorf("roster entry %s: %v", a.Name, err)
		}
	}
}

// TestExemptions holds the exemption table to its contract: every row
// names a known battery and a roster entry, gives a reason, and
// appears once; every battery still runs something.
func TestExemptions(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	type key struct {
		b    Battery
		algo string
	}
	seen := map[key]bool{}
	for _, e := range Exemptions {
		if !slices.Contains(Batteries, e.Battery) {
			t.Errorf("exemption %+v names an unknown battery", e)
		}
		if !slices.Contains(names, e.Algo) {
			t.Errorf("exemption %+v names an algorithm not on the roster", e)
		}
		if e.Reason == "" {
			t.Errorf("exemption %+v gives no reason", e)
		}
		if k := (key{e.Battery, e.Algo}); seen[k] {
			t.Errorf("exemption %+v is listed twice", e)
		} else {
			seen[k] = true
		}
	}
	for _, b := range Batteries {
		if len(For(b)) == 0 {
			t.Errorf("battery %s runs no architecture", b)
		}
	}
}

// TestForUnknownBattery pins that a battery name outside Batteries is
// an error, not an empty list a test would range over silently.
func TestForUnknownBattery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("For accepted an unknown battery")
		}
	}()
	For("no-such-battery")
}
