// Package scenario defines a JSON file format for complete experiment
// specifications — switch size, traffic family and parameters,
// algorithm roster, load grid and budgets — so that experiments can be
// version-controlled, shared and re-run exactly, rather than encoded
// in shell history.
//
// A scenario file looks like:
//
//	{
//	  "name": "my-sweep",
//	  "n": 16,
//	  "slots": 200000,
//	  "seed": 7,
//	  "traffic": {"family": "bernoulli", "b": 0.2},
//	  "algorithms": ["fifoms", "tatra", "islip", "oqfifo"],
//	  "loads": [0.1, 0.3, 0.5, 0.7, 0.9]
//	}
//
// Family-specific parameters: bernoulli/burst take "b"; uniform and
// mixed take "maxFanout"; burst takes "eOn"; mixed takes
// "multicastFrac"; hotspot takes "skew". An optional "topology"
// ("fattree:k=4", "clos:n=4,m=4,r=4") sweeps a multi-stage fabric whose
// every node runs the named algorithm, instead of a single switch; "n"
// must then be the fabric's external port count. Unknown fields are
// rejected, so typos fail loudly instead of silently running defaults.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"voqsim/internal/experiment"
	"voqsim/internal/traffic"
)

// TrafficSpec is the traffic part of a scenario: the family table's
// own description (internal/traffic), under the name scenario files
// and the distributed-sweep wire spec have always used.
type TrafficSpec = traffic.Spec

// Scenario is one experiment specification.
type Scenario struct {
	Name       string      `json:"name"`
	N          int         `json:"n"`
	Topology   string      `json:"topology,omitempty"`
	Slots      int64       `json:"slots,omitempty"`
	Seed       uint64      `json:"seed,omitempty"`
	Workers    int         `json:"workers,omitempty"`
	Traffic    TrafficSpec `json:"traffic"`
	Algorithms []string    `json:"algorithms"`
	Loads      []float64   `json:"loads"`
}

// Read parses and validates a scenario. Unknown JSON fields are
// errors.
func Read(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the scenario's structural constraints (the traffic
// parameters themselves are validated when the sweep resolves each
// load).
func (s *Scenario) Validate() error {
	_, err := s.roster()
	return err
}

// roster validates the scenario and resolves its algorithm names,
// lifted onto the topology when it has one.
func (s *Scenario) roster() ([]experiment.Algorithm, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: missing name")
	}
	if s.N <= 0 {
		return nil, fmt.Errorf("scenario %q: n must be positive", s.Name)
	}
	if len(s.Algorithms) == 0 {
		return nil, fmt.Errorf("scenario %q: no algorithms", s.Name)
	}
	if len(s.Loads) == 0 {
		return nil, fmt.Errorf("scenario %q: no loads", s.Name)
	}
	for _, l := range s.Loads {
		if l <= 0 {
			return nil, fmt.Errorf("scenario %q: non-positive load %v", s.Name, l)
		}
	}
	if err := s.Traffic.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	algos := make([]experiment.Algorithm, len(s.Algorithms))
	for i, name := range s.Algorithms {
		var err error
		if algos[i], _, err = experiment.Resolve(name, s.Topology, s.N, 0); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return algos, nil
}

// Sweep converts the scenario into a runnable experiment sweep.
func (s *Scenario) Sweep() (*experiment.Sweep, error) {
	algos, err := s.roster()
	if err != nil {
		return nil, err
	}
	return &experiment.Sweep{
		Name:       s.Name,
		Title:      fmt.Sprintf("%s (%s, %dx%d)", s.Name, s.Traffic.Family, s.N, s.N),
		N:          s.N,
		Loads:      s.Loads,
		Algorithms: algos,
		Slots:      s.Slots,
		Seed:       s.Seed,
		Workers:    s.Workers,
		Pattern:    s.Traffic.AtLoad,
	}, nil
}

// Write encodes the scenario as indented JSON (the canonical file
// form).
func (s *Scenario) Write(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("scenario: encoding: %w", err)
	}
	_, err := w.Write(buf.Bytes())
	return err
}
