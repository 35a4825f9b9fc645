package dsweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/scenario"
)

// The cross-mode differential: a sweep is one grid of (algorithm, load,
// replication) cells, and every way of running it — in memory, over a
// resume directory, across a fleet — under every option that changes
// what a cell is — replications, the fast engine, the checker, a
// fabric — must assemble the same table. One table of rows times one
// list of drivers replaces a battery per mode.

// modeRows are the sweeps. Each single-switch roster pairs FIFOMS with
// TATRA, which checkpoints through its board codec, and keeps
// testSpec's unreachable load so skipped cells travel every path too.
// The fast rows are the named exercisers of the whole-cell path of a
// resume directory: a fast engine cannot be snapshotted, so its cells
// run whole there. Under a lease every cell runs whole.
func modeRows() map[string]Spec {
	base := func() Spec {
		sp := testSpec()
		sp.Scenario.Name = "modes"
		sp.Scenario.Algorithms = []string{"fifoms", "tatra"}
		return sp
	}
	rows := map[string]Spec{"plain": base()}

	sp := base()
	sp.Replications = 3
	rows["replications"] = sp

	sp = base()
	sp.Fast = true
	rows["fast"] = sp

	sp = base()
	sp.Check = true
	rows["check"] = sp

	rows["fattree"] = Spec{Scenario: scenario.Scenario{
		Name: "modes", N: 16, Topology: "fattree:k=4", Slots: 600, Seed: 42,
		Traffic:    scenario.TrafficSpec{Family: "bernoulli", B: 0.12},
		Algorithms: []string{"fifoms", "pim"},
		Loads:      []float64{0.2, 0.4},
	}}

	sp = base()
	sp.Fast, sp.Check, sp.Replications = true, true, 2
	rows["fast+check+replications"] = sp
	return rows
}

// cellFile is the resume directory's name for a cell (resume.go).
func cellFile(s *experiment.Sweep, cell int, ext string) string {
	ai, li, rep := s.CellAt(cell)
	base := fmt.Sprintf("%s-%s-l%02d", s.Name, s.Algorithms[ai].Name, li)
	if rep > 0 {
		base += fmt.Sprintf("-r%02d", rep)
	}
	if s.Fast {
		base += "-fast"
	}
	return filepath.Join(s.CheckpointDir, base+ext)
}

// halfFinished leaves dir as a sweep killed mid-run leaves it: every
// other cell finished, and each remaining cell either untouched or —
// unless it is fast — stopped at a mid-run checkpoint.
func halfFinished(t *testing.T, sp Spec, dir string) {
	t.Helper()
	s := mustSweep(t, sp)
	s.CheckpointDir = dir
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for cell := 1; cell < s.Cells(); cell += 2 {
		if err := os.Remove(cellFile(s, cell, ".json")); err != nil {
			t.Fatalf("finished cell %s left no file: %v", s.CellLabel(cell), err)
		}
		if cell%4 != 1 {
			continue
		}
		ai, li, rep := s.CellAt(cell)
		var first []byte
		pt, err := s.RunPointAt(ai, li, rep, experiment.PointRun{
			CheckpointEvery: s.Slots / 4,
			Checkpoint: func(_ int64, blob []byte) {
				if first == nil {
					first = blob
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every architecture checkpoints; only a fast cell runs whole.
		if pt.Skipped == "" && (first == nil) != s.Fast {
			t.Fatalf("cell %s checkpointed %v with Fast=%v", s.CellLabel(cell), first != nil, s.Fast)
		}
		if first != nil {
			if err := os.WriteFile(cellFile(s, cell, ".snap"), first, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func mustSweep(t *testing.T, sp Spec) *experiment.Sweep {
	t.Helper()
	s, err := sp.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// modeDrivers are the ways to run a sweep.
var modeDrivers = []struct {
	name string
	run  func(t *testing.T, sp Spec) *experiment.Table
}{
	{"run/workers=4", func(t *testing.T, sp Spec) *experiment.Table {
		s := mustSweep(t, sp)
		s.Workers = 4
		return mustRun(t, s)
	}},
	{"run/resumed", func(t *testing.T, sp Spec) *experiment.Table {
		dir := t.TempDir()
		halfFinished(t, sp, dir)
		s := mustSweep(t, sp)
		s.Workers, s.CheckpointDir = 2, dir
		return mustRun(t, s)
	}},
	{"fleet/crash", func(t *testing.T, sp Spec) *experiment.Table {
		cfg := fastConfig()
		cfg.Spec = sp
		c, addr, ch := startCoordinator(t, cfg)
		// The first worker simulates cell 0 and dies before sending it;
		// the cell runs again from slot 0 on another worker.
		err := RunWorker(WorkerConfig{Addr: addr, Name: "doomed", Hooks: Hooks{ResultGate: crashGate}})
		if !errors.Is(err, errCrash) {
			t.Errorf("doomed worker exited with %v, want the crash", err)
		}
		var wg sync.WaitGroup
		for _, name := range []string{"w0", "w1"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunWorker(WorkerConfig{Addr: addr, Name: name}); err != nil {
					t.Errorf("worker %s: %v", name, err)
				}
			}()
		}
		tbl := waitTable(t, ch)
		wg.Wait()
		if v := counterValue(t, c.Metrics(), obs.MetricFleetLeasesReclaimed); v < 1 {
			t.Errorf("leases reclaimed = %d, want the crashed one", v)
		}
		return tbl
	}},
	{"fleet/preloaded", func(t *testing.T, sp Spec) *experiment.Table {
		dir := t.TempDir()
		halfFinished(t, sp, dir)
		cfg := fastConfig()
		cfg.Spec, cfg.Sweep = sp, mustSweep(t, sp)
		cfg.Sweep.CheckpointDir = dir
		c, addr, ch := startCoordinator(t, cfg)
		if err := RunWorker(WorkerConfig{Addr: addr, Name: "w"}); err != nil {
			t.Errorf("worker: %v", err)
		}
		tbl := waitTable(t, ch)
		if c.preloaded != (cfg.Sweep.Cells()+1)/2 {
			t.Errorf("preloaded %d of %d cells, want every other one", c.preloaded, cfg.Sweep.Cells())
		}
		return tbl
	}},
}

func mustRun(t *testing.T, s *experiment.Sweep) *experiment.Table {
	t.Helper()
	tbl, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSweepModesAgree(t *testing.T) {
	for name, sp := range modeRows() {
		t.Run(name, func(t *testing.T) {
			ref := mustSweep(t, sp)
			ref.Workers = 1
			want := mustRun(t, ref)
			wantJSON := mustJSON(t, want)
			if sp.Check {
				if fails := want.CheckFailures(); len(fails) > 0 {
					t.Fatalf("reference run fails the checker: %v", fails)
				}
			}
			for _, d := range modeDrivers {
				t.Run(d.name, func(t *testing.T) {
					got := d.run(t, sp)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("table differs from the one-worker in-memory run")
					}
					if gotJSON := mustJSON(t, got); string(gotJSON) != string(wantJSON) {
						t.Errorf("table JSON differs\ngot:  %s\nwant: %s", gotJSON, wantJSON)
					}
				})
			}
		})
	}
}
