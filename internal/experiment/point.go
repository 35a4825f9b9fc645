package experiment

import (
	"encoding/json"
	"fmt"
	"os"

	"voqsim/internal/core"
)

// Single-point execution: the leasing seam behind the distributed
// sweep backend (internal/dsweep). A sweep's grid points are
// independent by construction — every point derives its seeds from
// its own coordinates — so any scheduler that runs each point exactly
// once and places it at its coordinates reproduces Sweep.Run bit for
// bit. RunPointAt exposes one point as a unit of work, with the
// checkpoint protocol of resume.go redirected from disk files to
// caller-supplied blobs, so a worker process can stream snapshots to a
// remote coordinator and a replacement worker can resume a dead
// worker's point mid-run.

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
	// Pool optionally recycles arenas across points run by the same
	// worker, as the sharded engine does.
	Pool *core.ArenaPool
}

// RunPointAt simulates the single grid cell (ai, li) and returns its
// measured point. The result is bit-identical to the corresponding
// cell of Sweep.Run's table — resumed or not — which the distributed
// determinism tests pin. The sweep's CheckpointDir is ignored here:
// persistence policy belongs to the caller.
func (s *Sweep) RunPointAt(ai, li int, pr PointRun) (Point, error) {
	if err := s.Validate(); err != nil {
		return Point{}, err
	}
	if s.Replications > 1 {
		// The leasing protocol streams and resumes one simulation per
		// point; a merged-replication point has R of them. Replicated
		// sweeps run in-process (runReplicated), not under a lease.
		return Point{}, fmt.Errorf("experiment: sweep %q: replicated sweeps cannot run under point leases", s.Name)
	}
	if ai < 0 || ai >= len(s.Algorithms) || li < 0 || li >= len(s.Loads) {
		return Point{}, fmt.Errorf("experiment: point (%d,%d) outside %dx%d grid", ai, li, len(s.Algorithms), len(s.Loads))
	}
	return s.runCell(ai, li, 0, pr), nil
}

// LoadFinishedPoint reads the grid cell's finished-point JSON from the
// sweep's CheckpointDir, reporting ok=false when the directory is
// unset, the file is absent, or it does not decode. Float64 survives
// Go's JSON round-trip exactly, so a loaded point is bit-identical to
// the run that saved it.
func (s *Sweep) LoadFinishedPoint(ai, li int) (Point, bool) {
	if s.CheckpointDir == "" {
		return Point{}, false
	}
	doneFile, _ := s.pointPaths(ai, li)
	data, err := os.ReadFile(doneFile)
	if err != nil {
		return Point{}, false
	}
	var saved Point
	if err := json.Unmarshal(data, &saved); err != nil {
		return Point{}, false
	}
	return saved, true
}

// SaveFinishedPoint writes the grid cell's finished-point JSON into
// the sweep's CheckpointDir (creating it if needed) and removes any
// stale mid-run snapshot, so a later run of the same sweep loads the
// point instead of re-simulating it. A no-op without a CheckpointDir.
func (s *Sweep) SaveFinishedPoint(ai, li int, pt Point) error {
	if s.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	doneFile, snapFile := s.pointPaths(ai, li)
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
