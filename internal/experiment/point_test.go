package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"voqsim/internal/traffic"
)

// seamSweep is the grid the point-seam tests run: small enough for
// tier-1, with one unreachable load so the Skipped path is covered.
func seamSweep(dir string) *Sweep {
	return &Sweep{
		Name:  "seam",
		Title: "point seam",
		N:     4,
		Loads: []float64{0.3, 0.6, 1.5}, // 1.5 > 4*0.3: unreachable under b=0.3
		Pattern: func(load float64, n int) (traffic.Pattern, error) {
			return traffic.BernoulliAtLoad(load, 0.3, n)
		},
		Algorithms:    mustAlgos("fifoms", "oqfifo"),
		Slots:         2000,
		Seed:          42,
		CheckpointDir: dir,
	}
}

func mustAlgos(names ...string) []Algorithm {
	var out []Algorithm
	for _, n := range names {
		a, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

// TestRunPointAtMatchesRun pins the seam's core contract: every grid
// cell computed in isolation is identical — field for field, bit for
// bit through a JSON round-trip — to the cell Sweep.Run fills.
func TestRunPointAtMatchesRun(t *testing.T) {
	s := seamSweep("")
	tbl, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for ai := range s.Algorithms {
		for li := range s.Loads {
			pt, err := s.RunPointAt(ai, li, 0, PointRun{})
			if err != nil {
				t.Fatalf("RunPointAt(%d,%d): %v", ai, li, err)
			}
			if !reflect.DeepEqual(pt, tbl.Points[ai][li]) {
				t.Errorf("point (%d,%d) differs from Run's cell\nseam: %+v\nrun:  %+v", ai, li, pt, tbl.Points[ai][li])
			}
			got, _ := json.Marshal(pt)
			want, _ := json.Marshal(tbl.Points[ai][li])
			if string(got) != string(want) {
				t.Errorf("point (%d,%d) JSON differs\nseam: %s\nrun:  %s", ai, li, got, want)
			}
		}
	}
	if pt, _ := s.RunPointAt(0, 2, 0, PointRun{}); pt.Skipped == "" {
		t.Error("unreachable load 1.5 not marked Skipped")
	}
}

// TestRunPointAtResumeIdentity pins the crash-recovery contract the
// distributed backend leans on: a point resumed from any mid-run
// snapshot blob equals the point run straight through.
func TestRunPointAtResumeIdentity(t *testing.T) {
	s := seamSweep("")
	straight, err := s.RunPointAt(0, 1, 0, PointRun{})
	if err != nil {
		t.Fatal(err)
	}

	var blobs [][]byte
	var slots []int64
	withCkpt, err := s.RunPointAt(0, 1, 0, PointRun{
		CheckpointEvery: 500,
		Checkpoint:      func(slot int64, blob []byte) { blobs = append(blobs, blob); slots = append(slots, slot) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withCkpt, straight) {
		t.Fatal("checkpointing changed the point's results")
	}
	if len(blobs) < 2 {
		t.Fatalf("expected >=2 checkpoints at cadence 500 over 2000 slots, got %d (slots %v)", len(blobs), slots)
	}

	for i, blob := range blobs {
		resumed, err := s.RunPointAt(0, 1, 0, PointRun{Resume: blob})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, straight) {
			t.Errorf("resume from checkpoint %d (slot %d) differs from straight run", i, slots[i])
		}
	}

	// A hostile/unusable blob silently re-runs from slot 0.
	garbled, err := s.RunPointAt(0, 1, 0, PointRun{Resume: []byte("not a snapshot")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(garbled, straight) {
		t.Error("unusable resume blob did not fall back to a fresh identical run")
	}
}

// TestRunPointAtBounds rejects coordinates outside the grid and
// propagates sweep validation errors.
func TestRunPointAtBounds(t *testing.T) {
	s := seamSweep("")
	for _, c := range [][3]int{{-1, 0, 0}, {2, 0, 0}, {0, -1, 0}, {0, 3, 0}, {0, 0, -1}, {0, 0, 1}} {
		if _, err := s.RunPointAt(c[0], c[1], c[2], PointRun{}); err == nil {
			t.Errorf("RunPointAt(%d,%d,%d) accepted", c[0], c[1], c[2])
		}
	}
	bad := seamSweep("")
	bad.Loads = nil
	if _, err := bad.RunPointAt(0, 0, 0, PointRun{}); err == nil {
		t.Error("empty grid accepted")
	}
}

// TestFinishedPointRoundTrip pins the exported finished-point files
// against the resumable sweep's own protocol: a point saved through
// the seam is what a resumable re-run loads, bit for bit.
func TestFinishedPointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := seamSweep(dir)

	if _, ok := s.LoadFinishedPoint(0, 0, 0); ok {
		t.Fatal("loaded a finished point from an empty dir")
	}
	pt, err := s.RunPointAt(0, 0, 0, PointRun{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFinishedPoint(0, 0, 0, pt); err != nil {
		t.Fatal(err)
	}
	loaded, ok := s.LoadFinishedPoint(0, 0, 0)
	if !ok {
		t.Fatal("saved point not loadable")
	}
	if !reflect.DeepEqual(loaded, pt) {
		t.Fatalf("round-trip changed the point\nsaved:  %+v\nloaded: %+v", pt, loaded)
	}

	// The file is the same one the resumable sweep writes, so a full
	// resumable run loads it and skips the simulation.
	tbl, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl.Points[0][0], pt) {
		t.Error("resumable sweep did not reproduce the saved point")
	}

	// Without a CheckpointDir both helpers are inert.
	bare := seamSweep("")
	if err := bare.SaveFinishedPoint(0, 0, 0, pt); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare.LoadFinishedPoint(0, 0, 0); ok {
		t.Error("dirless sweep loaded a point")
	}
}

// TestStaleCheckpointDirReRuns is the regression for a reused resume
// directory: a finished-point file is this sweep's cell only if its
// seed, slot budget, port count and engine are, so a second sweep over
// the directory with any of them changed re-runs its cells and equals
// the same sweep run without a directory.
func TestStaleCheckpointDirReRuns(t *testing.T) {
	dir := t.TempDir()
	if _, err := seamSweep(dir).Run(); err != nil {
		t.Fatal(err)
	}
	for name, change := range map[string]func(*Sweep){
		"seed":  func(s *Sweep) { s.Seed = 43 },
		"slots": func(s *Sweep) { s.Slots = 3000 },
		"fast":  func(s *Sweep) { s.Fast = true },
		"loads": func(s *Sweep) { s.Loads = []float64{0.4, 0.6, 1.5} },
		"reps":  func(s *Sweep) { s.Replications = 2 },
	} {
		fresh, stale := seamSweep(""), seamSweep(dir)
		change(fresh)
		change(stale)
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := stale.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("changed %s: sweep over the stale directory differs from a fresh run", name)
		}
		// And the directory now resumes the changed sweep.
		again, err := stale.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Errorf("changed %s: re-run over its own directory differs", name)
		}
	}
}

// TestTableSetPoint pins the merge half of the seam.
func TestTableSetPoint(t *testing.T) {
	s := seamSweep("")
	tbl, err := s.NewTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 2 || len(tbl.Points[0]) != 3 {
		t.Fatalf("table shape %dx%d, want 2x3", len(tbl.Points), len(tbl.Points[0]))
	}
	pt := Point{Algorithm: "fifoms", Load: 0.3}
	if err := tbl.SetPoint(0, 0, pt); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Points[0][0]; got.Algorithm != "fifoms" {
		t.Fatalf("SetPoint stored %+v", got)
	}
	for _, c := range [][2]int{{-1, 0}, {2, 0}, {0, 3}} {
		if err := tbl.SetPoint(c[0], c[1], pt); err == nil {
			t.Errorf("SetPoint(%d,%d) accepted", c[0], c[1])
		}
	}
}
