package experiment

import (
	"fmt"
	"os"
	"path/filepath"
)

// Mid-sweep resume (Sweep.CheckpointDir). A resumable sweep keeps two
// files per cell under the checkpoint directory:
//
//	<sweep>-<algo>-l<li>[-r<rep>][-fast].json   the finished cell, verbatim
//	<sweep>-<algo>-l<li>[-r<rep>][-fast].snap   the running cell's latest snapshot
//
// Replication 0 carries no -r part, so an unreplicated sweep's files
// are the first replication of a replicated one; a Fast sweep's files
// carry -fast, so one directory never mixes the two engines.
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
// detected by the snapshot codec, and a finished-point JSON that is not
// this sweep's cell — the directory was reused with another seed, slot
// budget or grid — by LoadFinishedPoint; either way the cell silently
// re-runs from slot 0. A Fast cell cannot be snapshotted (see
// Runner.Snapshottable): it runs whole and leaves only its JSON.

// pointPaths returns the finished-result and mid-run snapshot paths
// of one cell.
func (s *Sweep) pointPaths(ai, li, rep int) (doneFile, snapFile string) {
	base := fmt.Sprintf("%s-%s-l%02d", s.Name, s.Algorithms[ai].Name, li)
	if rep > 0 {
		base += fmt.Sprintf("-r%02d", rep)
	}
	if s.Fast {
		base += "-fast"
	}
	base = filepath.Join(s.CheckpointDir, base)
	return base + ".json", base + ".snap"
}

// runPoint simulates one cell of Sweep.Run: runCell, behind the disk
// protocol above when the sweep has a CheckpointDir.
func (s *Sweep) runPoint(ai, li, rep int) Point {
	if s.CheckpointDir == "" {
		return s.runCell(ai, li, rep, PointRun{})
	}
	if saved, ok := s.LoadFinishedPoint(ai, li, rep); ok {
		return saved
	}
	// Absent or unusable finished point: run it, resuming from the
	// snapshot file when there is one (an unreadable file is no blob).
	_, snapFile := s.pointPaths(ai, li, rep)
	blob, _ := os.ReadFile(snapFile)
	pt := s.runCell(ai, li, rep, PointRun{
		Resume:          blob,
		CheckpointEvery: s.CheckpointEvery,
		Checkpoint: func(_ int64, snapshot []byte) {
			WriteFileAtomic(snapFile, snapshot) // best-effort, see package comment
		},
	})
	s.SaveFinishedPoint(ai, li, rep, pt) // best-effort, see package comment
	return pt
}

// WriteFileAtomic writes data, mode 0644, under a fresh temporary name
// in path's directory and renames it into place, so readers never
// observe a half-written file and two writers of one path never share
// a temporary. On any failure the temporary is removed.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
