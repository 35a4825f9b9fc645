package main

import (
	"fmt"
	"runtime"
	"time"

	"voqsim"
)

// result is everything one run of one workload reports.
type result struct {
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Seed      uint64    `json:"seed"`
	Traced    bool      `json:"traced"`
	Env       envInfo   `json:"env"`
	Metrics   metricSet `json:"metrics"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Failures holds the first few reasons an op failed.
	Failures []string `json:"failures,omitempty"`
	// Skipped names metrics the run refused to report, with the reason.
	Skipped []string `json:"skipped,omitempty"`
	// Untraced names layers whose calls cannot be reproduced from
	// outside the program, with the reason; they are never estimated.
	Untraced []string `json:"untraced,omitempty"`
	// Digest is the outputs' digest at this seed; Pinned is the
	// workload file's, which applies at the default seed only.
	Digest string   `json:"digest,omitempty"`
	Pinned string   `json:"pinned,omitempty"`
	Notes  []string `json:"notes,omitempty"`

	// setups and rawSetups are the set-up times so far, calibrated and
	// as measured; finish turns them into setup_s.
	setups, rawSetups []float64
}

func newResult(w workloadSpec, opt runOptions) *result {
	return &result{
		Workload: w.Name, Why: w.Why, Seed: opt.seed, Traced: opt.traced,
		Env: readEnv(), Metrics: metricSet{}, Pinned: w.Digest,
	}
}

// op counts attempted operations, and failed ones when err is set.
func (r *result) op(n int, err error) {
	r.Attempted += n
	if err != nil {
		r.Failed += n
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setup records one set-up. factor is the host's slowness around it
// (calibrate.go), or 0 for a set-up whose length a clock sets and that
// is therefore not calibrated.
func (r *result) setup(wall time.Duration, factor float64) {
	if factor == 0 {
		r.setups = append(r.setups, wall.Seconds())
		return
	}
	r.setups = append(r.setups, wall.Seconds()/factor)
	r.rawSetups = append(r.rawSetups, wall.Seconds())
}

// finish stamps the metrics every workload owes at the end of a run.
func (r *result) finish() {
	r.Env.LoadEnd = loadAvg1()
	r.Metrics.setCalibrated("setup_s", summarize(r.setups), summarize(r.rawSetups))
	r.Metrics.set("peak_rss_mb", peakRSSMiB(), 1)
	frac := 1.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics.set("failed_frac", frac, r.Attempted)
}

// runOptions is what the command line asks of one workload run.
type runOptions struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
}

// setupRepeats is how many times a run sets up; setup_s is the median.
// The first set-up comes before anything is timed and the others are
// spread evenly among the timed repetitions, so that the five do not
// all fall into one of the host's speed regimes (calibrate.go).
const setupRepeats = 5

// setupDue reports whether the next set-up's turn has come, spent of
// budget seconds into the timed repetitions.
func (r *result) setupDue(spent time.Duration, budget float64) bool {
	n := len(r.setups)
	return n < setupRepeats && spent.Seconds() >= float64(n)*budget/setupRepeats
}

// simRep is one timed repetition of a switch or fabric workload.
type simRep struct {
	report voqsim.Report
	wall   time.Duration
	// factor is how much slower than nominal the host ran around the
	// repetition (calibrate.go).
	factor float64
	// mallocs and gcPause are deltas over the repetition, read outside
	// the timed window.
	mallocs uint64
	gcPause time.Duration
}

func timedRun(cal *calibrator, cfg voqsim.Config) (simRep, error) {
	var before, after runtime.MemStats
	var rep voqsim.Report
	var err error
	cleanHeap()
	runtime.ReadMemStats(&before)
	wall, factor := cal.timed(func() { rep, err = voqsim.Run(cfg) })
	runtime.ReadMemStats(&after)
	return simRep{
		report: rep, wall: wall, factor: factor,
		mallocs: after.Mallocs - before.Mallocs,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, err
}

// cleanHeap collects the previous repetition's garbage before the
// next one is timed. A user's voqsim process runs once on a clean
// heap; without this, peak_rss_mb depends on where in a repetition the
// collector happens to start (it read 28 or 36 MiB on sw256-mcast-fast
// from one run to the next).
func cleanHeap() { runtime.GC() }

func slotsPerSecond(r simRep) float64 { return float64(r.report.Slots) / r.wall.Seconds() }

// calibrated lifts a per-repetition rate to calibrated host seconds.
func calibrated(rate func(simRep) float64) func(simRep) float64 {
	return func(r simRep) float64 { return rate(r) * r.factor }
}

// copiesPerSecond is the delivered copies per host second: the copies
// delivered in the measured window, over that window's share of the
// repetition's wall time.
func copiesPerSecond(r simRep) float64 {
	measured := r.report.Slots - r.report.WarmupSlots
	if measured <= 0 {
		return 0
	}
	share := float64(measured) / float64(r.report.Slots)
	return float64(r.report.DeliveredCopies) / (r.wall.Seconds() * share)
}

// runSim runs a switch or fabric workload: timed repetitions of
// voqsim.Run for the asked seconds with the set-ups (an untimed warm-up
// repetition each) among them, and in a traced run the layer-by-layer
// pass.
func runSim(w workloadSpec, opt runOptions) (*result, error) {
	res := newResult(w, opt)
	seq, err := w.simConfig(opt.seed, 0)
	if err != nil {
		return nil, err
	}
	par, err := w.simConfig(opt.seed, 2)
	if err != nil {
		return nil, err
	}
	fabric := w.Kind == kindFabric
	par2 := fabric && cpusAvailable() >= 2
	if fabric && !par2 {
		res.Skipped = append(res.Skipped, fmt.Sprintf(
			"slots_per_s_par2: %d CPU available; Parallel: 2 on one CPU measures only its overhead", cpusAvailable()))
		res.op(1, fmt.Errorf("slots_per_s_par2 skipped: fewer than 2 CPUs"))
	}

	cal := newCalibrator()
	setUp := func() error {
		var rep voqsim.Report
		var err error
		cleanHeap()
		wall, factor := cal.timed(func() {
			if rep, err = voqsim.Run(seq); err == nil && par2 {
				_, err = voqsim.Run(par)
			}
		})
		if err != nil {
			return fmt.Errorf("warm-up repetition: %w", err)
		}
		res.setup(wall, factor)
		res.Digest = reportDigest(rep)
		return nil
	}

	budget := opt.seconds
	minReps := w.MinReps
	if opt.traced {
		// The traced pass needs most of the time; the untraced
		// repetitions here only give it its baseline.
		budget /= 4
		minReps = 2
	}
	var seqReps, parReps []simRep
	var spent time.Duration // in timed repetitions; set-ups do not count
	for len(seqReps) < minReps || spent.Seconds() < budget || len(res.setups) < setupRepeats {
		if res.setupDue(spent, budget) {
			if err := setUp(); err != nil {
				return nil, err
			}
			continue
		}
		r, err := timedRun(cal, seq)
		spent += r.wall
		if err == nil {
			err = w.checkReport(r.report, opt.seed)
		}
		res.op(1, err)
		seqReps = append(seqReps, r)
		if par2 {
			// Interleaved, so a drift of the host hits both alike.
			p, err := timedRun(cal, par)
			spent += p.wall
			if err == nil && reportDigest(p.report) != reportDigest(r.report) {
				err = fmt.Errorf("Parallel: 2 report differs from the sequential one")
			}
			res.op(1, err)
			parReps = append(parReps, p)
		}
	}

	seqRate := sampleOf(seqReps, calibrated(slotsPerSecond))
	res.Metrics.setCalibrated("slots_per_s", seqRate, sampleOf(seqReps, slotsPerSecond))
	res.Metrics.setCalibrated("pkts_per_s", sampleOf(seqReps, calibrated(copiesPerSecond)), sampleOf(seqReps, copiesPerSecond))
	last := seqReps[len(seqReps)-1].report
	res.Metrics.set("sim_in_delay_slots", last.AvgInputDelay, 1)
	res.Metrics.set("sim_throughput", last.Throughput, 1)
	if par2 {
		parRate := sampleOf(parReps, calibrated(slotsPerSecond))
		res.Metrics.setCalibrated("slots_per_s_par2", parRate, sampleOf(parReps, slotsPerSecond))
		if opt.traced {
			res.Metrics.set("fabric.par2_over_seq", parRate.Median/seqRate.Median, parRate.N)
		}
	}

	if opt.traced {
		res.Metrics.set("switchsim.run_ns_per_slot", 1e9/seqRate.Median, seqRate.N)
		res.Metrics.setSample("switchsim.allocs_per_slot", sampleOf(seqReps, func(r simRep) float64 {
			return float64(r.mallocs) / float64(r.report.Slots)
		}))
		res.Metrics.setSample("switchsim.gc_pause_ms", sampleOf(seqReps, func(r simRep) float64 {
			return float64(r.gcPause) / 1e6
		}))
		if err := tracedPass(w, opt, res, cal, 1e9/seqRate.Median, par2); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}
