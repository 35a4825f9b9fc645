package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"voqsim"
	"voqsim/internal/analytic"
	"voqsim/internal/experiment"
)

// sweepCensus is what one pass over the workload's figures through the
// experiment engine's own API tells about the grid: how many points,
// how many slots they really simulated (a saturated point aborts
// early, so points x slots-per-point would overstate it) and how many
// copies they delivered. The grid is a function of the seed alone, so
// the timed repetitions — which go through voqsim.Figure, the call
// users wait on — divide these totals by their own wall time.
type sweepCensus struct {
	points int
	slots  int64
	copies float64
	// slotsByAlgo feeds experiment.ns_per_slot.<algo>.
	slotsByAlgo map[string]int64
}

func (w workloadSpec) sweeps(seed uint64, workers int) ([]*experiment.Sweep, error) {
	figs := experiment.Figures(experiment.Options{Slots: w.Inputs.SlotsPerPoint, Seed: seed, Workers: workers})
	var out []*experiment.Sweep
	for _, name := range w.Inputs.Figures {
		s, ok := figs[name]
		if !ok {
			return nil, fmt.Errorf("bench: workload %s names unknown figure %q", w.Name, name)
		}
		out = append(out, s)
	}
	return out, nil
}

// census runs every sweep once. progress, when set, receives the wall
// time of each finished point; with one worker the points run one
// after another, so the deltas are the points' own times.
func (w workloadSpec) census(seed uint64, workers int, progress func(label string, took time.Duration)) (sweepCensus, error) {
	c := sweepCensus{slotsByAlgo: map[string]int64{}}
	sweeps, err := w.sweeps(seed, workers)
	if err != nil {
		return c, err
	}
	for _, s := range sweeps {
		if progress != nil {
			var prev time.Duration
			s.Progress = func(p experiment.Progress) {
				progress(p.Label, p.Elapsed-prev)
				prev = p.Elapsed
			}
		}
		tbl, err := s.Run()
		if err != nil {
			return c, err
		}
		for ai, row := range tbl.Points {
			for _, pt := range row {
				c.points++
				r := pt.Results
				c.slots += r.Slots
				c.slotsByAlgo[tbl.Algos[ai]] += r.Slots
				if measured := r.Slots - r.WarmupSlots; measured > 0 {
					c.copies += float64(r.Delivered) * float64(r.Slots) / float64(measured)
				}
			}
		}
	}
	return c, nil
}

// sweepRep is one timed repetition: every figure through voqsim.Figure.
type sweepRep struct {
	wall       time.Duration
	factor     float64 // host slowness around the repetition (calibrate.go)
	digest     string
	violations []string
	modelErr   float64
	mallocs    uint64
}

func (w workloadSpec) timedSweep(cal *calibrator, seed uint64) (sweepRep, error) {
	var rep sweepRep
	var before, after runtime.MemStats
	cleanHeap()
	runtime.ReadMemStats(&before)
	d := newDigester()
	var figs []*voqsim.FigureResult
	var err error
	rep.wall, rep.factor = cal.timed(func() {
		for _, name := range w.Inputs.Figures {
			var f *voqsim.FigureResult
			f, err = voqsim.Figure(name, voqsim.FigureOptions{Slots: w.Inputs.SlotsPerPoint, Seed: seed, Workers: w.Inputs.Workers})
			if err != nil {
				return
			}
			figs = append(figs, f)
		}
	})
	if err != nil {
		return rep, err
	}
	runtime.ReadMemStats(&after)
	rep.mallocs = after.Mallocs - before.Mallocs
	for _, f := range figs {
		figureDigest(d, f)
		for _, v := range f.Violations {
			rep.violations = append(rep.violations, f.Name+": "+v)
		}
		if f.Name == "fig6" {
			rep.modelErr = modelErrPct(f)
		}
	}
	rep.digest = d.String()
	return rep, nil
}

// modelErrPct is the mean, over the unicast grid's loads up to 0.9, of
// |simulated oqfifo input delay - Karol's closed form| / closed form,
// in percent. Karol's output-queued delay is the only validated
// reference the repository holds; FIFOMS itself is not validated
// against hardware.
func modelErrPct(fig6 *voqsim.FigureResult) float64 {
	sim := fig6.Series["oqfifo/"+experiment.InputDelay.Name]
	var sum float64
	var n int
	for i, load := range fig6.Loads {
		if load > 0.9 || i >= len(sim) || math.IsInf(sim[i], 0) {
			continue
		}
		want := analytic.OQDelay(16, load)
		sum += math.Abs(sim[i]-want) / want
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// runSweep runs the paper-figure workload.
func runSweep(w workloadSpec, opt runOptions) (*result, error) {
	res := newResult(w, opt)

	cal := newCalibrator()
	var grid sweepCensus
	setUp := func() error {
		var err error
		cleanHeap()
		wall, factor := cal.timed(func() { grid, err = w.census(opt.seed, w.Inputs.Workers, nil) })
		if err != nil {
			return fmt.Errorf("warm-up repetition: %w", err)
		}
		res.setup(wall, factor)
		return nil
	}

	budget, minReps := opt.seconds, w.MinReps
	if opt.traced {
		budget, minReps = opt.seconds/3, 2
	}
	var reps []sweepRep
	var spent time.Duration // in timed repetitions; set-ups do not count
	for len(reps) < minReps || spent.Seconds() < budget || len(res.setups) < setupRepeats {
		if res.setupDue(spent, budget) {
			if err := setUp(); err != nil {
				return nil, err
			}
			continue
		}
		rep, err := w.timedSweep(cal, opt.seed)
		if err != nil {
			return nil, err
		}
		spent += rep.wall
		res.Digest = rep.digest
		failed := len(rep.violations)
		if opt.seed == w.Seed && rep.digest != w.Digest {
			res.op(grid.points, fmt.Errorf("figure digest %s differs from the pinned %s", rep.digest, w.Digest))
		} else {
			if failed > grid.points {
				failed = grid.points
			}
			res.op(grid.points-failed, nil)
			if failed > 0 {
				res.op(failed, fmt.Errorf("paper-shape violations: %s", strings.Join(rep.violations, "; ")))
			}
		}
		reps = append(reps, rep)
	}

	rate := func(f func(sweepRep) float64) sample { return sampleOf(reps, f) }
	slotRate := rate(func(r sweepRep) float64 { return float64(grid.slots) / r.wall.Seconds() })
	res.Metrics.setCalibrated("slots_per_s",
		rate(func(r sweepRep) float64 { return float64(grid.slots) / r.wall.Seconds() * r.factor }), slotRate)
	res.Metrics.setCalibrated("pkts_per_s",
		rate(func(r sweepRep) float64 { return grid.copies / r.wall.Seconds() * r.factor }),
		rate(func(r sweepRep) float64 { return grid.copies / r.wall.Seconds() }))
	res.Metrics.set("model_err_pct", reps[len(reps)-1].modelErr, 1)
	res.notef("model_err_pct compares the simulated output-queued switch with Karol's closed form; FIFOMS itself is not validated against hardware")

	if opt.traced {
		m := res.Metrics
		m.setSample("experiment.points_per_s", rate(func(r sweepRep) float64 { return float64(grid.points) / r.wall.Seconds() }))
		m.setSample("experiment.allocs_per_point", rate(func(r sweepRep) float64 { return float64(r.mallocs) / float64(grid.points) }))

		// One pass on one worker: the points run back to back, so each
		// Progress delta is one point's own time.
		byAlgo := map[string]time.Duration{}
		t0 := time.Now()
		one, err := w.census(opt.seed, 1, func(label string, took time.Duration) {
			algo, _, _ := strings.Cut(label, "@")
			byAlgo[algo] += took
		})
		if err != nil {
			return nil, fmt.Errorf("one-worker pass: %w", err)
		}
		oneWall := time.Since(t0)
		for algo, took := range byAlgo {
			name := "experiment.ns_per_slot." + algo
			if _, ok := metricByName(name); ok && one.slotsByAlgo[algo] > 0 {
				m.set(name, float64(took.Nanoseconds())/float64(one.slotsByAlgo[algo]), 1)
			}
		}
		m.set("experiment.workers2_over_1", slotRate.Median/(float64(one.slots)/oneWall.Seconds()), slotRate.N)
		res.Untraced = append(res.Untraced,
			"experiment engine internals (shard queues, stealing, arena pool): only whole points are visible from outside, through Sweep.Progress; the per-point spans' overhead is one callback per point and is not measured",
			"result assembly and table formatting inside voqsim.Figure: timed only as part of the whole call")
		if err := writeTrace(opt.outDir, traceFile{
			Workload: w.Name, Seed: opt.seed, Env: res.Env, Layers: layerMetrics(m), Untraced: res.Untraced,
		}); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}
