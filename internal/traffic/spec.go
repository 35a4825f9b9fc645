package traffic

import (
	"flag"
	"fmt"
	"strings"
)

// Spec describes a run's traffic the way the paper's Section V does: a
// family by name plus the shape parameters that family holds fixed
// while the load varies. It is the traffic part of a scenario file and
// of the distributed-sweep wire spec (the JSON tags are that format),
// and what the -traffic flag group of every binary fills in.
type Spec struct {
	Family        string  `json:"family"`
	B             float64 `json:"b,omitempty"`
	MaxFanout     int     `json:"maxFanout,omitempty"`
	EOn           float64 `json:"eOn,omitempty"`
	MulticastFrac float64 `json:"multicastFrac,omitempty"`
	Skew          float64 `json:"skew,omitempty"`
}

// families is the family table, the one place that knows a family by
// its name: how its free parameter is solved for a target load, which
// shape parameters it reads, and what a sweep header calls it.
var families = []struct {
	name   string
	atLoad func(s Spec, load float64, n int) (Pattern, error)
	reads  func(s Spec) Spec
	title  func(s Spec) string
}{
	{"bernoulli",
		func(s Spec, load float64, n int) (Pattern, error) { return BernoulliAtLoad(load, s.B, n) },
		func(s Spec) Spec { return Spec{B: s.B} },
		func(s Spec) string { return fmt.Sprintf("Bernoulli traffic, b=%g", s.B) }},
	{"uniform",
		func(s Spec, load float64, n int) (Pattern, error) { return UniformAtLoad(load, s.MaxFanout, n) },
		func(s Spec) Spec { return Spec{MaxFanout: s.MaxFanout} },
		func(s Spec) string { return fmt.Sprintf("Uniform traffic, maxFanout=%d", s.MaxFanout) }},
	{"burst",
		func(s Spec, load float64, n int) (Pattern, error) { return BurstAtLoad(load, s.B, s.EOn, n) },
		func(s Spec) Spec { return Spec{B: s.B, EOn: s.EOn} },
		func(s Spec) string { return fmt.Sprintf("Burst traffic, b=%g, Eon=%g", s.B, s.EOn) }},
	{"mixed",
		func(s Spec, load float64, n int) (Pattern, error) {
			return MixedAtLoad(load, s.MulticastFrac, s.MaxFanout, n)
		},
		func(s Spec) Spec { return Spec{MulticastFrac: s.MulticastFrac, MaxFanout: s.MaxFanout} },
		func(s Spec) string {
			return fmt.Sprintf("Mixed traffic, mc=%g, maxFanout=%d", s.MulticastFrac, s.MaxFanout)
		}},
	{"hotspot",
		func(s Spec, load float64, n int) (Pattern, error) { return HotspotAtLoad(load, s.Skew, n) },
		func(s Spec) Spec { return Spec{Skew: s.Skew} },
		func(s Spec) string { return fmt.Sprintf("Hotspot traffic, skew=%g", s.Skew) }},
	{"diagonal",
		func(s Spec, load float64, n int) (Pattern, error) {
			if load > 1 {
				return nil, fmt.Errorf("traffic: diagonal load %v exceeds 1", load)
			}
			return Diagonal{P: load}, nil
		},
		func(s Spec) Spec { return Spec{} },
		func(s Spec) string { return "Diagonal traffic" }},
}

// familyList renders the family names for error and help texts.
func familyList() string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return strings.Join(names, "|")
}

// row returns the index of the spec's family in the table.
func (s Spec) row() (int, error) {
	for i, f := range families {
		if f.name == s.Family {
			return i, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown family %q (have %s)", s.Family, familyList())
}

// Validate reports an unknown family. The shape parameters are
// validated against a switch size and a load, by AtLoad.
func (s Spec) Validate() error {
	_, err := s.row()
	return err
}

// AtLoad returns the family's pattern offering the given effective load
// on an n-port switch, or reports that the load is not offerable under
// the spec's shape parameters.
func (s Spec) AtLoad(load float64, n int) (Pattern, error) {
	i, err := s.row()
	if err != nil {
		return nil, err
	}
	return families[i].atLoad(s, load, n)
}

// Canonical returns the spec with only the parameters its family reads,
// so two specs that run identically also encode identically. A spec
// that does not Validate is returned unchanged.
func (s Spec) Canonical() Spec {
	i, err := s.row()
	if err != nil {
		return s
	}
	c := families[i].reads(s)
	c.Family = s.Family
	return c
}

// Title names the family and its shape parameters for a report header,
// e.g. "Bernoulli traffic, b=0.2".
func (s Spec) Title() string {
	i, err := s.row()
	if err != nil {
		return s.Family + " traffic"
	}
	return families[i].title(s)
}

// RegisterFlags registers the traffic flags every binary shares on fs
// and returns the Spec they fill in when fs is parsed.
func RegisterFlags(fs *flag.FlagSet) *Spec {
	s := &Spec{}
	fs.StringVar(&s.Family, "traffic", "bernoulli", "traffic family: "+familyList())
	fs.Float64Var(&s.B, "b", 0.2, "per-output destination probability (bernoulli, burst)")
	fs.IntVar(&s.MaxFanout, "maxfanout", 8, "maximum fanout (uniform, mixed)")
	fs.Float64Var(&s.EOn, "eon", 16, "mean burst length in slots (burst)")
	fs.Float64Var(&s.MulticastFrac, "mcfrac", 0.5, "multicast fraction of arrivals (mixed)")
	fs.Float64Var(&s.Skew, "skew", 4, "hot/cold load ratio (hotspot)")
	return s
}
