package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"voqsim/internal/core"
	"voqsim/internal/switchsim"
)

// In-process parallel replications (DESIGN.md §16). A replicated sweep
// flattens its work to (grid point × replication) shards on the same
// work-stealing pool that runs plain sweeps, so one expensive point —
// or a one-point sweep — keeps every worker busy instead of leaving
// R−1 cores idle behind a single long run. Each replication derives
// its seed from (sweep seed, ai, li, rep) and writes only its own
// slot; the per-point merge folds the R runs in replication order, so
// the finished table is byte-identical for any worker count and any
// scheduling, like everything else the engine runs.

// runReplicated fills tbl with Replications runs per grid point.
func (s *Sweep) runReplicated(tbl *Table) (*Table, error) {
	reps := s.Replications
	nl := len(s.Loads)
	points := len(s.Algorithms) * nl
	runs := make([][]Point, points)
	for i := range runs {
		runs[i] = make([]Point, reps)
	}
	runShards(s.Workers, points*reps, s.Progress, func(shard int, pool *core.ArenaPool) string {
		p, rep := shard/reps, shard%reps
		ai, li := p/nl, p%nl
		load := strconv.FormatFloat(s.Loads[li], 'g', -1, 64)
		withPointLabels(s.Name, s.Algorithms[ai].Name, load, func() {
			runs[p][rep] = s.runCell(ai, li, rep, PointRun{Pool: pool})
		})
		return fmt.Sprintf("%s@%s#%d", s.Algorithms[ai].Name, load, rep)
	})
	for p, pts := range runs {
		tbl.Points[p/nl][p%nl] = mergePoints(pts)
	}
	return tbl, nil
}

// mergePoints folds one grid cell's replications into its table entry.
// A skipped load is skipped identically in every replication (the
// pattern depends only on (load, N)), so the first run speaks for all;
// checker verdicts are joined with their replication index so a single
// bad replication stays attributable.
func mergePoints(pts []Point) Point {
	out := pts[0]
	if out.Skipped != "" {
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
