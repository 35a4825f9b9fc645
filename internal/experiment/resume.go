package experiment

import (
	"fmt"
	"os"
	"path/filepath"

	"voqsim/internal/core"
)

// Mid-sweep resume (Sweep.CheckpointDir). A resumable sweep keeps two
// files per grid point under the checkpoint directory:
//
//	<sweep>-<algo>-l<li>.json   the finished point, verbatim
//	<sweep>-<algo>-l<li>.snap   the running point's latest snapshot
//
// A finished point is loaded from its JSON instead of re-simulated
// (float64 survives Go's JSON round-trip exactly, so the assembled
// table is bit-identical to an uninterrupted sweep). An interrupted
// point restores its snapshot and continues from the checkpointed
// slot, which the differential tests in internal/switchsim pin to be
// bit-identical to never having stopped. Checkpoint writes are
// best-effort: a failing disk degrades the sweep to non-resumable, it
// never changes results. Unusable artifacts (older format version,
// corruption, a config drift that changes the point's identity) are
// detected by the snapshot codec and the point silently re-runs from
// slot 0.
//
// The directory is keyed by sweep name, algorithm and load index
// only, so it must not be shared between sweeps with different
// parameters: a changed grid would be caught by the snapshot identity
// header, but a stale finished-point JSON is trusted as saved.

// pointPaths returns the finished-result and mid-run snapshot paths
// of one grid cell.
func (s *Sweep) pointPaths(ai, li int) (doneFile, snapFile string) {
	base := filepath.Join(s.CheckpointDir,
		fmt.Sprintf("%s-%s-l%02d", s.Name, s.Algorithms[ai].Name, li))
	return base + ".json", base + ".snap"
}

// runPoint simulates one grid cell of Sweep.Run: runCell, behind the
// disk protocol above when the sweep has a CheckpointDir.
func (s *Sweep) runPoint(ai, li int, pool *core.ArenaPool) Point {
	if s.CheckpointDir == "" {
		return s.runCell(ai, li, 0, PointRun{Pool: pool})
	}
	if saved, ok := s.LoadFinishedPoint(ai, li); ok {
		return saved
	}
	// Absent or unreadable finished point: run it, resuming from the
	// snapshot file when there is one (an unreadable file is no blob).
	_, snapFile := s.pointPaths(ai, li)
	blob, _ := os.ReadFile(snapFile)
	pt := s.runCell(ai, li, 0, PointRun{
		Resume:          blob,
		CheckpointEvery: s.CheckpointEvery,
		Checkpoint: func(_ int64, snapshot []byte) {
			WriteFileAtomic(snapFile, snapshot) // best-effort, see package comment
		},
		Pool: pool,
	})
	if pt.Skipped == "" {
		s.SaveFinishedPoint(ai, li, pt) // best-effort, see package comment
	}
	return pt
}

// WriteFileAtomic writes data under a temporary name and renames it
// into place, so readers never observe a half-written file.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
