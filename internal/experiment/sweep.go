package experiment

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	invcheck "voqsim/internal/check"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
)

// PatternFunc builds the traffic pattern offering the given effective
// load on an n-port switch, or reports that the load is not offerable
// under the family's fixed shape parameters.
type PatternFunc func(load float64, n int) (traffic.Pattern, error)

// Sweep is one experiment: a traffic family swept over loads and run
// under several algorithms. The zero values of Slots and Workers
// select sensible defaults.
type Sweep struct {
	Name       string // short id, e.g. "fig4"
	Title      string // human description for report headers
	N          int    // switch size (the paper: 16)
	Loads      []float64
	Pattern    PatternFunc
	Algorithms []Algorithm
	Slots      int64  // slots per point (default 200k)
	Seed       uint64 // base seed; every point derives its own
	Workers    int    // parallel points (default GOMAXPROCS)
	// Check runs every point under the runtime invariant checker
	// (internal/check). Measurements are unchanged — the checker is
	// passive — but any violation is recorded in the point's
	// CheckError, and Table.CheckFailures surfaces them.
	Check bool
	// CheckpointDir, when non-empty, makes the sweep resumable: each
	// completed cell's results are saved there as JSON, each running
	// cell checkpoints its simulation state periodically, and a
	// re-run of the identical sweep loads finished cells from disk
	// and resumes interrupted ones mid-run — reproducing the
	// uninterrupted sweep bit for bit (see resume.go). A Fast cell,
	// which cannot be snapshotted, runs whole and is saved when it
	// finishes.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in slots (default:
	// a tenth of the point's slot budget). Only used with
	// CheckpointDir.
	CheckpointEvery int64
	// Progress, when non-nil, receives one event per completed grid
	// point (see the Progress type). Events are serialized and carry
	// running ETA, so a sink may render them straight to a terminal.
	// Reporting never affects results or their determinism.
	Progress func(Progress)
	// Fast runs every point in the engine's relaxed-identity fast
	// mode (DESIGN.md §12): same stochastic model, O(1) samplers,
	// batched statistics. A fast run cannot be snapshotted, so its
	// cells run whole under CheckpointDir or a lease.
	Fast bool
	// Replications runs every grid point R times with independent
	// per-replication seed substreams and merges the R runs into the
	// point's Results with MergePoints (counters summed, moments
	// combined, gauges weighted by measured window). A replication is
	// the third coordinate of the sweep's cells: the R runs are shards
	// of the same pool as the points themselves, so a single point
	// saturates the whole worker fleet, and each is checkpointed,
	// resumed and leased like any other cell; the merged table is
	// byte-identical for any worker count. Replication 0 uses exactly
	// the legacy point seed, so a 1-replication sweep equals a plain
	// one. Values <= 1 mean one run per point.
	Replications int
}

// Point is one measured (algorithm, load) grid cell.
type Point struct {
	Algorithm  string            `json:"algorithm"`
	Load       float64           `json:"load"`
	Skipped    string            `json:"skipped,omitempty"` // non-empty when the load is unreachable
	CheckError string            `json:"check_error,omitempty"`
	Results    switchsim.Results `json:"results"`
}

// Table is a completed sweep: Points[a][l] holds algorithm a at load l.
type Table struct {
	Name   string    `json:"name"`
	Title  string    `json:"title"`
	N      int       `json:"n"`
	Loads  []float64 `json:"loads"`
	Algos  []string  `json:"algorithms"`
	Points [][]Point `json:"points"`
}

// Validate checks the sweep's structural constraints without running
// anything; Run performs the same checks. It is exported so a driver
// that fans the grid out itself — the distributed coordinator in
// internal/dsweep — can reject a bad sweep before leasing any cell.
func (s *Sweep) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("experiment: sweep %q has no switch size", s.Name)
	}
	if len(s.Loads) == 0 || len(s.Algorithms) == 0 {
		return fmt.Errorf("experiment: sweep %q has an empty grid", s.Name)
	}
	return nil
}

// A sweep's unit of work is the cell (ai, li, rep): replication rep of
// algorithm ai at load li. Cells are numbered (ai·L+li)·R+rep — for
// one replication, exactly the grid points in row-major order — and
// every driver (Run's shards, the resume directory, dsweep's leases)
// runs, stores and merges the same numbered cells.

// reps is the number of replications per grid point, at least one.
func (s *Sweep) reps() int { return max(s.Replications, 1) }

// Cells returns the number of cells of the sweep.
func (s *Sweep) Cells() int { return len(s.Algorithms) * len(s.Loads) * s.reps() }

// CellAt returns the coordinates of the numbered cell.
func (s *Sweep) CellAt(cell int) (ai, li, rep int) {
	p, rep := cell/s.reps(), cell%s.reps()
	return p / len(s.Loads), p % len(s.Loads), rep
}

// CellLabel names a cell for progress and log lines: "algo@load", with
// "#rep" appended in a replicated sweep.
func (s *Sweep) CellLabel(cell int) string {
	ai, li, rep := s.CellAt(cell)
	label := s.Algorithms[ai].Name + "@" + strconv.FormatFloat(s.Loads[li], 'g', -1, 64)
	if s.reps() > 1 {
		label += "#" + strconv.Itoa(rep)
	}
	return label
}

// NewTable validates the sweep and returns its empty result table,
// with every grid cell zero. Sweep.Run fills such a table itself; an
// external driver (internal/dsweep) fills it point by point with
// Table.SetPoint.
func (s *Sweep) NewTable() (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tbl := &Table{Name: s.Name, Title: s.Title, N: s.N, Loads: s.Loads}
	tbl.Points = make([][]Point, len(s.Algorithms))
	for i, a := range s.Algorithms {
		tbl.Algos = append(tbl.Algos, a.Name)
		tbl.Points[i] = make([]Point, len(s.Loads))
	}
	return tbl, nil
}

// Run executes every cell of the sweep on the sharded engine (see
// engine.go) and returns the assembled table. Results are
// deterministic for a fixed Sweep regardless of worker count: every
// cell derives its seeds from its coordinates and writes only its own
// slot, and a grid point's replications are folded in replication
// order.
func (s *Sweep) Run() (*Table, error) {
	tbl, err := s.NewTable()
	if err != nil {
		return nil, err
	}
	if s.CheckpointDir != "" {
		if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: checkpoint dir: %w", err)
		}
	}

	cells := make([]Point, s.Cells())
	runShards(s.Workers, len(cells), s.Progress, func(cell int) string {
		ai, li, rep := s.CellAt(cell)
		load := strconv.FormatFloat(s.Loads[li], 'g', -1, 64)
		withPointLabels(s.Name, s.Algorithms[ai].Name, load, func() {
			cells[cell] = s.runPoint(ai, li, rep)
		})
		return s.CellLabel(cell)
	})
	for first, r := 0, s.reps(); first < len(cells); first += r {
		ai, li, _ := s.CellAt(first)
		tbl.Points[ai][li] = MergePoints(cells[first : first+r])
	}
	return tbl, nil
}

// MergePoints folds one grid point's replications, in replication
// order, into its table entry; a lone run is returned untouched. A
// skipped load is skipped identically in every replication (the
// pattern depends only on (load, N)), so the first run speaks for all;
// checker verdicts are joined with their replication index so a single
// bad replication stays attributable.
func MergePoints(pts []Point) Point {
	out := pts[0]
	if len(pts) == 1 || out.Skipped != "" {
		return out
	}
	rs := make([]switchsim.Results, len(pts))
	var errs []string
	for i := range pts {
		rs[i] = pts[i].Results
		if pts[i].CheckError != "" {
			errs = append(errs, fmt.Sprintf("rep %d: %s", i, pts[i].CheckError))
		}
	}
	out.Results = switchsim.MergeResults(rs)
	out.CheckError = strings.Join(errs, "; ")
	return out
}

// runCell simulates replication rep of grid cell (ai, li). It is the
// one copy of the point protocol — resolve the pattern, build the
// runner, restore pr.Resume or fall back to slot 0, stream snapshots to
// pr.Checkpoint at the default cadence, collect the checker verdict —
// and every way a point runs is this function under a different
// PointRun: Sweep.Run in memory or over the checkpoint directory
// (resume.go), or a lease (RunPointAt).
func (s *Sweep) runCell(ai, li, rep int, pr PointRun) Point {
	algo := s.Algorithms[ai]
	pt := Point{Algorithm: algo.Name, Load: s.Loads[li]}
	pat, err := s.Pattern(pt.Load, s.N)
	if err != nil {
		pt.Skipped = err.Error()
		return pt
	}

	r, ck, release := s.pointRunner(ai, li, rep, pat)
	if len(pr.Resume) > 0 {
		if err := r.Restore(algo.Name, pr.Resume); err != nil {
			// A failed restore may leave the runner partially loaded;
			// rebuild it and run the point from slot 0.
			release()
			r, ck, release = s.pointRunner(ai, li, rep, pat)
		}
	}
	defer release()

	// A Fast point still runs under a checkpointing caller: it runs
	// whole, it just cannot be interrupted mid-run.
	var every int64
	var sink switchsim.CheckpointFunc
	if pr.Checkpoint != nil && r.Snapshottable() == nil {
		every = pr.CheckpointEvery
		if every <= 0 {
			every = max(r.Config().Slots/10, 1)
		}
		sink = func(slot int64, blob []byte) error {
			pr.Checkpoint(slot, blob)
			return nil
		}
	}
	res, err := r.RunWithCheckpoints(algo.Name, every, sink)
	if err != nil {
		// Unreachable with a never-failing sink, but keep the point
		// well-formed if the invariant ever changes.
		pt.Skipped = err.Error()
		return pt
	}
	pt.Results = res
	if ck != nil {
		if cerr := ck.Err(); cerr != nil {
			pt.CheckError = cerr.Error()
		}
	}
	return pt
}

// pointSeed derives a cell's seed. It mixes the sweep seed with the
// grid coordinates, so every point is independent and re-running the
// sweep — with any worker count — reproduces it exactly; the
// derivation is pinned — checkpoint blobs and finished-point files
// embed the derived seed, so changing it would orphan every saved
// directory. Replication 0 uses the point seed unchanged; higher
// replications mix in their index, giving every replication an
// independent substream that is still a pure function of
// (sweep seed, ai, li, rep).
func (s *Sweep) pointSeed(ai, li, rep int) uint64 {
	seed := s.Seed ^ (uint64(ai)+1)*0x9e3779b97f4a7c15 ^ (uint64(li)+1)*0xd6e8feb86659fd93
	return seed ^ uint64(rep)*0x94d049bb133111eb
}

// pointRunner builds the runner of one cell (NewRunner under the
// sweep's labeling and Check setting).
func (s *Sweep) pointRunner(ai, li, rep int, pat traffic.Pattern) (*switchsim.Runner, *invcheck.Checker, func()) {
	cfg := switchsim.Config{Slots: s.Slots, Seed: s.pointSeed(ai, li, rep), Fast: s.Fast}
	return pointSeeding.NewRunner(s.Algorithms[ai], s.N, pat, cfg, s.Check)
}

// CheckFailures lists every point of a checked sweep that drew an
// invariant-checker verdict, rendered "algo@load: error". Empty for a
// clean (or unchecked) table.
func (t *Table) CheckFailures() []string {
	var out []string
	for ai, row := range t.Points {
		for li, pt := range row {
			if pt.CheckError != "" {
				out = append(out, fmt.Sprintf("%s@%.3f: %s", t.Algos[ai], t.Loads[li], pt.CheckError))
			}
		}
	}
	return out
}

// SetPoint stores one measured grid cell, addressed by algorithm and
// load index. It is the merge half of the distributed seam: a
// coordinator places points computed elsewhere into the table that
// Sweep.Run would have filled locally.
func (t *Table) SetPoint(ai, li int, pt Point) error {
	if ai < 0 || ai >= len(t.Points) || li < 0 || li >= len(t.Loads) {
		return fmt.Errorf("experiment: point (%d,%d) outside %dx%d grid", ai, li, len(t.Points), len(t.Loads))
	}
	t.Points[ai][li] = pt
	return nil
}

// Get returns the point for the given algorithm name and load index.
func (t *Table) Get(algo string, li int) (Point, error) {
	for ai, name := range t.Algos {
		if name == algo {
			if li < 0 || li >= len(t.Loads) {
				return Point{}, fmt.Errorf("experiment: load index %d outside %d", li, len(t.Loads))
			}
			return t.Points[ai][li], nil
		}
	}
	return Point{}, fmt.Errorf("experiment: algorithm %q not in table %q", algo, t.Name)
}

// Series extracts one metric for one algorithm across all loads.
// Skipped or (for Saturating metrics) unstable points yield +Inf.
func (t *Table) Series(algo string, m Metric) ([]float64, error) {
	for ai, name := range t.Algos {
		if name != algo {
			continue
		}
		out := make([]float64, len(t.Loads))
		for li, pt := range t.Points[ai] {
			out[li] = m.ValueOf(pt)
		}
		return out, nil
	}
	return nil, fmt.Errorf("experiment: algorithm %q not in table %q", algo, t.Name)
}
