package experiment

import (
	"encoding/json"
	"fmt"
	"os"

	"voqsim/internal/switchsim"
)

// Single-cell execution: the leasing seam behind the distributed
// sweep backend (internal/dsweep). A sweep's cells are independent by
// construction — every cell derives its seeds from its own
// coordinates — so any scheduler that runs each cell exactly once and
// merges it at its coordinates reproduces Sweep.Run bit for bit.
// RunPointAt exposes one cell as a unit of work; a dsweep worker runs
// its lease with a zero PointRun, from slot 0 to the end. A non-zero
// PointRun is a named test seam: it drives the checkpoint protocol of
// resume.go through caller-supplied blobs instead of disk files, so
// tests can stop a cell mid-run and resume it.

// PointRun configures a single-point run.
type PointRun struct {
	// Resume, when non-empty, is a snapshot blob from a previous run
	// of the same point; the simulation continues from the
	// checkpointed slot. A blob the snapshot codec rejects (version
	// drift, corruption, a different point's identity) makes the point
	// silently re-run from slot 0, mirroring the disk protocol.
	Resume []byte
	// CheckpointEvery is the snapshot cadence in slots; 0 defaults to
	// a tenth of the point's slot budget. Only used with Checkpoint.
	CheckpointEvery int64
	// Checkpoint, when non-nil, receives a snapshot blob every
	// CheckpointEvery slots. The blob is freshly allocated each call
	// and may be retained. Architectures without snapshot support run
	// whole without checkpointing, exactly as in a resumable sweep.
	Checkpoint func(slot int64, blob []byte)
}

// RunPointAt simulates the single cell (ai, li, rep) and returns its
// measured point. The result is bit-identical to the cell Sweep.Run
// computes — resumed or not — which the cross-mode differential in
// internal/dsweep pins. The sweep's CheckpointDir is ignored here:
// persistence policy belongs to the caller.
func (s *Sweep) RunPointAt(ai, li, rep int, pr PointRun) (Point, error) {
	if err := s.Validate(); err != nil {
		return Point{}, err
	}
	if ai < 0 || ai >= len(s.Algorithms) || li < 0 || li >= len(s.Loads) || rep < 0 || rep >= s.reps() {
		return Point{}, fmt.Errorf("experiment: cell (%d,%d,%d) outside %dx%dx%d grid",
			ai, li, rep, len(s.Algorithms), len(s.Loads), s.reps())
	}
	return s.runCell(ai, li, rep, pr), nil
}

// LoadFinishedPoint reads the cell's finished-point JSON from the
// sweep's CheckpointDir, reporting ok=false when the directory is
// unset, the file is absent, it does not decode, or it is not this
// cell's result: the algorithm, load, port count, derived seed and
// warmup (or, for a skipped point, the pattern's refusal) must be the
// ones this sweep would run the cell with, so a directory reused with
// another seed, slot budget, traffic or grid re-runs the cell — like
// an unusable snapshot — instead of returning stale numbers. Float64
// survives Go's JSON round-trip exactly, so a loaded point is
// bit-identical to the run that saved it.
func (s *Sweep) LoadFinishedPoint(ai, li, rep int) (Point, bool) {
	if s.CheckpointDir == "" {
		return Point{}, false
	}
	doneFile, _ := s.pointPaths(ai, li, rep)
	data, err := os.ReadFile(doneFile)
	if err != nil {
		return Point{}, false
	}
	var saved Point
	if err := json.Unmarshal(data, &saved); err != nil {
		return Point{}, false
	}
	if saved.Algorithm != s.Algorithms[ai].Name || saved.Load != s.Loads[li] {
		return Point{}, false
	}
	if _, err := s.Pattern(saved.Load, s.N); err != nil {
		return saved, saved.Skipped == err.Error()
	}
	r := &saved.Results
	ok := saved.Skipped == "" && r.Ports == s.N && r.Seed == s.pointSeed(ai, li, rep) &&
		r.WarmupSlots == (switchsim.Config{Slots: s.Slots}).WarmupSlots()
	return saved, ok
}

// SaveFinishedPoint writes the cell's finished-point JSON into the
// sweep's CheckpointDir (creating it if needed) and removes any stale
// mid-run snapshot, so a later run of the same sweep loads the cell
// instead of re-simulating it. A no-op without a CheckpointDir.
func (s *Sweep) SaveFinishedPoint(ai, li, rep int, pt Point) error {
	if s.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	doneFile, snapFile := s.pointPaths(ai, li, rep)
	data, err := json.MarshalIndent(pt, "", "  ")
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(doneFile, append(data, '\n')); err != nil {
		return err
	}
	os.Remove(snapFile)
	return nil
}
