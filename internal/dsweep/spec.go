package dsweep

import (
	"bytes"
	"encoding/json"
	"fmt"

	"voqsim/internal/experiment"
	"voqsim/internal/scenario"
)

// Spec is the sweep description a coordinator sends in its welcome
// frame: everything a worker needs to rebuild the exact per-point
// simulations, and nothing it doesn't (table title, worker counts and
// persistence policy stay coordinator-side). It reuses the
// version-controlled scenario format for the grid and traffic model,
// so any scenario file can be served to a fleet unchanged.
//
// Determinism contract: a worker's point depends only on the fields
// here — cell coordinates, N, topology, slots, seed, traffic
// parameters, algorithm roster, replication count and the check and
// fast flags — so two workers given the same spec produce
// bit-identical points, and the merged table equals a single-process
// experiment.Sweep run.
type Spec struct {
	Scenario scenario.Scenario `json:"scenario"`
	// Check runs every point under the runtime invariant checker; the
	// verdict travels back inside the point.
	Check bool `json:"check,omitempty"`
	// Fast runs every point in the engine's fast mode
	// (experiment.Sweep.Fast).
	Fast bool `json:"fast,omitempty"`
	// Replications is the number of runs per grid point
	// (experiment.Sweep.Replications); each is leased as its own cell.
	Replications int `json:"replications,omitempty"`
}

// ParseSpec decodes and validates a wire spec. Unknown fields are
// rejected, so a version-drifted coordinator fails loudly at the
// handshake instead of silently running defaults.
func ParseSpec(b []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("dsweep: decoding spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate checks the spec's structural constraints.
func (sp *Spec) Validate() error {
	if err := sp.Scenario.Validate(); err != nil {
		return fmt.Errorf("dsweep: %w", err)
	}
	if sp.Replications < 0 || sp.Replications > MaxGrid {
		return fmt.Errorf("dsweep: replication count %d out of range", sp.Replications)
	}
	return nil
}

// Marshal encodes the spec for the welcome frame.
func (sp *Spec) Marshal() ([]byte, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(sp)
}

// Sweep rebuilds the runnable sweep a worker executes points of.
func (sp *Spec) Sweep() (*experiment.Sweep, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s, err := sp.Scenario.Sweep()
	if err != nil {
		return nil, err
	}
	s.Check = sp.Check
	s.Fast = sp.Fast
	s.Replications = sp.Replications
	return s, nil
}
