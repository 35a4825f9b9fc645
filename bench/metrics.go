package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository
// root lists the same names; TestBenchmarkJSONMatchesCatalogue keeps
// the two from drifting.

type metricClass int

const (
	// classDriver metrics are reported by every workload on every
	// untraced run and are the ones BENCHMARK.json bounds
	// ("end_to_end").
	classDriver metricClass = iota
	// classUser metrics are as user-visible as the driver ones, but
	// exist on some workloads only (a latency needs sockets, a model
	// error needs the sweep) or are exact at a fixed seed rather than
	// steady across seeds. The self-check bounds them; BENCHMARK.json
	// lists them with the layer metrics because its end-to-end list
	// admits only metrics every workload reports.
	classUser
	// classLayer metrics come from the traced run and have no bound.
	classLayer
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the relative worsening that counts as a regression.
	Bound float64
	Class metricClass
	// Exact metrics are simulated or counted, not timed: at one seed
	// two runs of one program agree to the last bit.
	Exact bool
}

var catalogue = []metricDef{
	// The bounds follow the spread (interquartile distance over median,
	// ten seeds) each metric showed on the noisy host the baseline was
	// taken on, up to the 0.25 the benchmark contract allows;
	// out/baseline-spread.txt has the measurements.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Class: classDriver},
	{Name: "slots_per_s", Unit: "slots/s", Better: "higher", Bound: 0.25, Class: classDriver},
	{Name: "pkts_per_s", Unit: "copies/s", Better: "higher", Bound: 0.25, Class: classDriver},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15, Class: classDriver},

	{Name: "slots_per_s_par2", Unit: "slots/s", Better: "higher", Bound: 0.25, Class: classUser},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.20, Class: classUser},
	{Name: "sim_in_delay_slots", Unit: "slots", Better: "lower", Class: classUser, Exact: true},
	{Name: "sim_throughput", Unit: "copies/out/slot", Better: "higher", Class: classUser, Exact: true},
	{Name: "model_err_pct", Unit: "%", Better: "lower", Class: classUser, Exact: true},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Class: classUser, Exact: true},

	{Name: "traffic.draw_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "traffic.arrivals_per_slot", Unit: "count", Better: "higher", Class: classLayer, Exact: true},
	{Name: "core.arrive_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "core.arrive_ns_per_copy", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "core.copies_enqueued_per_slot", Unit: "count", Better: "higher", Class: classLayer, Exact: true},
	{Name: "core.match_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "core.match_ns_per_round", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "core.rounds_per_busy_slot", Unit: "count", Better: "lower", Class: classLayer, Exact: true},
	{Name: "core.grants_per_request", Unit: "ratio", Better: "higher", Class: classLayer, Exact: true},
	{Name: "core.splits_per_slot", Unit: "count", Better: "lower", Class: classLayer, Exact: true},
	{Name: "core.transfer_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "core.copies_delivered_per_slot", Unit: "count", Better: "higher", Class: classLayer, Exact: true},
	{Name: "stats.record_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "switchsim.run_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "switchsim.allocs_per_slot", Unit: "count", Better: "lower", Class: classLayer},
	{Name: "switchsim.gc_pause_ms", Unit: "ms", Better: "lower", Class: classLayer},
	{Name: "fabric.node_step_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "fabric.overhead_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "fabric.copies_per_slot", Unit: "count", Better: "higher", Class: classLayer, Exact: true},
	{Name: "fabric.hop_mean", Unit: "count", Better: "lower", Class: classLayer, Exact: true},
	{Name: "fabric.link_drops", Unit: "count", Better: "lower", Class: classLayer, Exact: true},
	{Name: "fabric.node_busy_frac_par2", Unit: "ratio", Better: "higher", Class: classLayer},
	{Name: "fabric.par2_over_seq", Unit: "ratio", Better: "higher", Class: classLayer},
	{Name: "experiment.points_per_s", Unit: "1/s", Better: "higher", Class: classLayer},
	{Name: "experiment.ns_per_slot.fifoms", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "experiment.ns_per_slot.tatra", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "experiment.ns_per_slot.islip", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "experiment.ns_per_slot.oqfifo", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "experiment.workers2_over_1", Unit: "ratio", Better: "higher", Class: classLayer},
	{Name: "experiment.allocs_per_point", Unit: "count", Better: "lower", Class: classLayer},
	{Name: "daemon.codec_ns_per_frame", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "daemon.live_step_ns_per_slot", Unit: "ns", Better: "lower", Class: classLayer},
	{Name: "daemon.socket_residual_frac", Unit: "ratio", Better: "lower", Class: classLayer},
	{Name: "daemon.ring_drops", Unit: "count", Better: "lower", Class: classLayer},
	{Name: "daemon.egress_drops", Unit: "count", Better: "lower", Class: classLayer},
	{Name: "daemon.backpressure_slots", Unit: "count", Better: "lower", Class: classLayer},
	{Name: "daemon.slot_lag_p99_slots", Unit: "slots", Better: "lower", Class: classLayer},
	{Name: "daemon.gen_late_p99_us", Unit: "us", Better: "lower", Class: classLayer},
	{Name: "daemon.lat_p99_us", Unit: "us", Better: "lower", Class: classLayer},
	{Name: "daemon.lat_max_us", Unit: "us", Better: "lower", Class: classLayer},
	{Name: "daemon.lat_samples", Unit: "count", Better: "higher", Class: classLayer},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Class: classLayer},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower", Class: classLayer},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range catalogue {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number. N is the sample count behind it
// (repetitions for a median, observations for a percentile); Values
// are the per-repetition readings of a timed median.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// Raw is the uncalibrated wall-clock median of a metric whose
	// Value is in calibrated host seconds (calibrate.go), RawValues the
	// per-repetition wall-clock readings; both are absent for a metric
	// that is not calibrated.
	Raw       float64   `json:"raw_wall_clock,omitempty"`
	RawValues []float64 `json:"raw_values,omitempty"`
}

// metricSet collects a run's metrics by name; the unit always comes
// from the catalogue, so a metric cannot be printed under two units.
type metricSet map[string]metricValue

func (ms metricSet) set(name string, v float64, n int) {
	def, ok := metricByName(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	ms[name] = metricValue{Value: v, Unit: def.Unit, N: n}
}

func (ms metricSet) setSample(name string, s sample) { ms.setCalibrated(name, s, sample{}) }

// setCalibrated stores a median taken in calibrated host seconds with
// the raw wall-clock readings beside it.
func (ms metricSet) setCalibrated(name string, s, raw sample) {
	def, ok := metricByName(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	ms[name] = metricValue{Value: s.Median, Unit: def.Unit, N: s.N, Q1: s.Q1, Q3: s.Q3, Values: s.Values,
		Raw: raw.Median, RawValues: raw.Values}
}
