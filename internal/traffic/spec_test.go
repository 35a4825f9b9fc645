package traffic

import (
	"encoding/json"
	"flag"
	"io"
	"testing"
)

// TestSpecTable pins every row of the family table against the
// constructor it stands for: the solved pattern, the canonical
// (wire) form and the report title.
func TestSpecTable(t *testing.T) {
	full := Spec{B: 0.3, MaxFanout: 5, EOn: 12, MulticastFrac: 0.4, Skew: 3}
	const load, n = 0.7, 8
	direct := func(p Pattern, err error) Pattern {
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		family string
		want   Pattern
		wire   string
		title  string
	}{
		{"bernoulli", direct(BernoulliAtLoad(load, 0.3, n)), `{"family":"bernoulli","b":0.3}`, "Bernoulli traffic, b=0.3"},
		{"uniform", direct(UniformAtLoad(load, 5, n)), `{"family":"uniform","maxFanout":5}`, "Uniform traffic, maxFanout=5"},
		{"burst", direct(BurstAtLoad(load, 0.3, 12, n)), `{"family":"burst","b":0.3,"eOn":12}`, "Burst traffic, b=0.3, Eon=12"},
		{"mixed", direct(MixedAtLoad(load, 0.4, 5, n)), `{"family":"mixed","maxFanout":5,"multicastFrac":0.4}`, "Mixed traffic, mc=0.4, maxFanout=5"},
		{"hotspot", direct(HotspotAtLoad(load, 3, n)), `{"family":"hotspot","skew":3}`, "Hotspot traffic, skew=3"},
		{"diagonal", Diagonal{P: load}, `{"family":"diagonal"}`, "Diagonal traffic"},
	}
	if len(cases) != len(families) {
		t.Fatalf("table has %d families, test covers %d", len(families), len(cases))
	}
	for _, tc := range cases {
		s := full
		s.Family = tc.family
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		got, err := s.AtLoad(load, n)
		if err != nil || got != tc.want {
			t.Errorf("%s: AtLoad = %v, %v; want %v", tc.family, got, err, tc.want)
		}
		wire, err := json.Marshal(s.Canonical())
		if err != nil || string(wire) != tc.wire {
			t.Errorf("%s: canonical form %s, %v; want %s", tc.family, wire, err, tc.wire)
		}
		if got := s.Title(); got != tc.title {
			t.Errorf("%s: title %q, want %q", tc.family, got, tc.title)
		}
	}
	if _, err := (Spec{Family: "diagonal"}).AtLoad(1.5, n); err == nil {
		t.Error("diagonal accepted a load above 1")
	}
}

func TestSpecUnknownFamily(t *testing.T) {
	s := Spec{Family: "warp", B: 0.2}
	if s.Validate() == nil {
		t.Error("unknown family validated")
	}
	if _, err := s.AtLoad(0.5, 8); err == nil {
		t.Error("unknown family resolved a pattern")
	}
	if s.Canonical() != s {
		t.Errorf("canonical form of an unknown family: %+v", s.Canonical())
	}
}

// TestRegisterFlags pins the shared flag group: names, defaults, and
// that a parsed command line lands in the returned Spec.
func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Family: "bernoulli", B: 0.2, MaxFanout: 8, EOn: 16, MulticastFrac: 0.5, Skew: 4}); *s != want {
		t.Fatalf("defaults %+v, want %+v", *s, want)
	}
	if err := fs.Parse([]string{"-traffic", "hotspot", "-skew", "2", "-b", "0.1", "-maxfanout", "3", "-eon", "4", "-mcfrac", "0.9"}); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Family: "hotspot", B: 0.1, MaxFanout: 3, EOn: 4, MulticastFrac: 0.9, Skew: 2}); *s != want {
		t.Fatalf("parsed %+v, want %+v", *s, want)
	}
}
