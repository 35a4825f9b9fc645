// Package switchsim is the discrete-time simulation engine: it drives
// traffic sources into a switch slot by slot, collects the paper's
// statistics (Section V), handles warmup and detects instability.
//
// The engine owns the experiment's measurement discipline so that every
// switch architecture is measured identically:
//
//   - each slot, arrivals are generated and handed to the switch, then
//     the switch runs one scheduling/transfer step;
//   - the first WarmupFrac of the run is excluded from all statistics;
//   - a run aborts and is flagged unstable when the buffered backlog
//     exceeds a ceiling, mirroring the paper's "runs ... unless the
//     switch becomes unstable".
package switchsim

import (
	"fmt"
	"math"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/stats"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// Switch is what the engine needs from a switch architecture. It is
// satisfied by core.Switch (FIFOMS/iSLIP/PIM/2DRR/LQFMS on the
// multicast VOQ structure), tatra.Switch, wba.Switch, oq.Switch,
// cioq.Switch and eslip.Switch, and by the fabric and the invariant
// checker that wrap them.
type Switch interface {
	// Ports returns the port count N.
	Ports() int
	// Arrive enqueues a packet that arrived at the start of the
	// current slot, before Step for that slot.
	Arrive(p *cell.Packet)
	// Step runs one slot of scheduling and transfer, reporting every
	// delivered copy.
	Step(slot int64, deliver func(cell.Delivery))
	// QueueSizes fills dst (length N) with the per-port queue-size
	// metric of the architecture.
	QueueSizes(dst []int) []int
	// BufferedCells returns the backlog used for instability
	// detection.
	BufferedCells() int64
	// SaveState and LoadState checkpoint the switch (DESIGN.md §10).
	SaveState(w *snap.Writer)
	LoadState(r *snap.Reader) error
	// ForEachCopy calls fn for every copy the switch buffers: from
	// input in to output out, of packet id, which arrived in slot
	// arrival. The invariant checker primes itself from it.
	ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64))
	// SetObserver attaches the slot-level observability layer
	// (DESIGN.md §8), or detaches it with nil; Runner.Instrument and
	// LiveRunner.Instrument call it.
	SetObserver(o *obs.Observer)
	PacketReleaser
}

// RoundsReporter is optionally implemented by switches whose scheduler
// iterates (FIFOMS, iSLIP, PIM); the engine then records convergence
// rounds (Figure 5).
type RoundsReporter interface {
	LastRounds() int
}

// BytesReporter is optionally implemented by switches that account
// their buffer memory in bytes (Section IV.B's space analysis); the
// engine then records mean and peak memory.
type BytesReporter interface {
	BufferedBytes() int64
}

// PacketReleaser is the release half of the switch contract: every
// architecture, the fabric and the invariant checker implement it.
type PacketReleaser interface {
	// SetReleaseHook registers fn to receive each packet once the
	// switch holds no reference to it — or to its destination set —
	// any more, or detaches the hook (nil), leaving packets to the GC:
	// core.Switch after the packet's last buffered copy leaves (in
	// ModeShared its one data-slab entry, in ModeCopied the last of its
	// private ones), tatra.Switch and wba.Switch when the packet leaves
	// the head of its queue, eslip.Switch there for a multicast packet
	// and as it pops a unicast cell, oq.Switch at the end of the Step
	// after its arrival, cioq.Switch through its input stage once the
	// last copy has crossed into its OQFIFO output stage. Packets a
	// restored switch rebuilt from a snapshot are released the same
	// way. An architecture releases from Step, never from Arrive:
	// callers read the packet after Arrive returns (LiveRunner.Admit
	// its ID, voqd's -record its destinations). The fabric alone
	// releases from Arrive, once it has copied the destinations;
	// nothing takes the packet from the pool before those callers
	// have read it. New and NewLive register their packet pool,
	// making the steady-state slot loop allocation-free;
	// check.Checker does not forward the hook.
	SetReleaseHook(fn func(*cell.Packet))
}

// FabricReporter is optionally implemented by compound switches — the
// multi-stage fabric, possibly under a checker wrapper — that track
// end-to-end copy routing; the engine then attaches the fabric summary
// to the results.
type FabricReporter interface {
	FabricStats() *fabric.Stats
}

// DropReporter is implemented by switches that can lose admitted
// copies (the fabric's bounded inter-stage links). The engine needs no
// drop hook: a fabric never marks Done on a packet that lost a copy,
// so such a packet never completes. The interface stays because
// bench/traced.go still registers one.
type DropReporter interface {
	SetDropHook(fn func(fabric.Drop))
}

// Config controls one simulation run.
type Config struct {
	// Slots is the total number of simulated time slots.
	Slots int64
	// WarmupFrac is the fraction of slots excluded from statistics at
	// the start of the run; the paper uses "typically half". Zero
	// (the zero value) and values >= 1 fall back to 0.5; pass a
	// negative value to measure from slot 0.
	WarmupFrac float64
	// UnstableCellLimit aborts the run once the switch buffers more
	// than this many cells; zero means 1000*N.
	UnstableCellLimit int64
	// Seed drives the traffic sources and the switch's internal
	// randomness indirectly through the caller; it is recorded in the
	// results for reproducibility.
	Seed uint64
	// Fast enables the relaxed-identity fast mode (DESIGN.md §12):
	// traffic patterns are swapped for their alias/Floyd/geometric
	// variants (traffic.Fast), idle ports are skipped between
	// arrivals, delay statistics accumulate in deferred batches, and
	// the per-slot occupancy/memory sampling is subsampled to every
	// fastStatsEvery-th measured slot. A fast run draws the same
	// distributions in a different order, so it is not bit-comparable
	// to a default run and cannot be checkpointed, resumed or golden-
	// replayed; it is validated statistically instead.
	Fast bool
	// DrawAhead has Run draw the traffic one batch ahead on a second
	// goroutine (DESIGN.md §17). It changes no output, only who polls
	// the sources, and pays only when a CPU is idle: set it from
	// SpareCPU, and leave it off under a pool of concurrent runs.
	DrawAhead bool
}

func (c Config) withDefaults(n int) Config {
	if c.Slots <= 0 {
		c.Slots = 200_000
	}
	switch {
	case c.WarmupFrac < 0:
		c.WarmupFrac = 0
	case c.WarmupFrac == 0 || c.WarmupFrac >= 1:
		c.WarmupFrac = 0.5
	}
	if c.UnstableCellLimit <= 0 {
		c.UnstableCellLimit = int64(1000 * n)
	}
	return c
}

// WarmupSlots returns the Results.WarmupSlots of a run New builds from
// this configuration (c as the caller wrote it, defaults not applied),
// so a saved result can be matched to its configuration without
// building the run.
func (c Config) WarmupSlots() int64 { return c.withDefaults(0).warmup() }

// warmup is the number of slots excluded from statistics, for a
// configuration whose defaults are applied (withDefaults is not
// idempotent in WarmupFrac, so it must not run twice).
func (c Config) warmup() int64 { return int64(float64(c.Slots) * c.WarmupFrac) }

// fastStatsEvery is the fast-mode batching and subsampling interval, in
// slots (DESIGN.md §12).
const fastStatsEvery = 16

// Summary is the plain-value digest of a Welford accumulator, suitable
// for tables and JSON.
type Summary struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	StdErr float64 `json:"stderr"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Count  int64   `json:"count"`
}

// finite maps NaN to 0 so that Summary (and Results as a whole) stays
// comparable with == and encodable as JSON; Count == 0 (or < 2 for the
// spread fields) already says "no data" unambiguously.
func finite(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func summarize(w *stats.Welford) Summary {
	return Summary{
		Mean:   finite(w.Mean()),
		StdDev: finite(w.StdDev()),
		StdErr: finite(w.StdErr()),
		Min:    finite(w.Min()),
		Max:    finite(w.Max()),
		Count:  w.Count(),
	}
}

// Results are the measurements of one run: the four statistics of
// Section V plus convergence rounds, throughput and accounting
// counters.
type Results struct {
	Algorithm string  `json:"algorithm"`
	Pattern   string  `json:"pattern"`
	Load      float64 `json:"load"` // analytic effective load
	Ports     int     `json:"ports"`
	Seed      uint64  `json:"seed"`

	Slots       int64 `json:"slots"`        // slots actually simulated
	WarmupSlots int64 `json:"warmup_slots"` // slots excluded from stats
	Unstable    bool  `json:"unstable"`
	UnstableAt  int64 `json:"unstable_at,omitempty"` // slot the backlog ceiling was hit

	OfferedPackets int64 `json:"offered_packets"` // post-warmup arrivals
	OfferedCopies  int64 `json:"offered_copies"`
	Completed      int64 `json:"completed_packets"`
	Delivered      int64 `json:"delivered_copies"`

	InputDelay  Summary `json:"input_delay"`  // paper: average input oriented delay
	OutputDelay Summary `json:"output_delay"` // paper: average output oriented delay

	// Per-class input-oriented delay: unicast (fanout 1) versus
	// multicast (fanout >= 2) packets, for fairness analysis under
	// mixed traffic.
	UnicastInputDelay   Summary `json:"unicast_input_delay"`
	MulticastInputDelay Summary `json:"multicast_input_delay"`
	AvgQueue            float64 `json:"avg_queue"` // paper: average queue size
	MaxQueue            int64   `json:"max_queue"` // paper: maximum queue size

	// Rounds summarises scheduler convergence rounds per busy
	// post-warmup slot; Count == 0 for non-iterative switches.
	Rounds Summary `json:"rounds"`

	// Throughput is delivered copies per output per post-warmup slot.
	Throughput float64 `json:"throughput"`

	// Buffer memory accounting (Section IV.B), for switches that
	// report it: mean bytes per port per post-warmup slot, and the
	// peak total bytes over the measured window.
	AvgBufferBytes  float64 `json:"avg_buffer_bytes"`
	PeakBufferBytes int64   `json:"peak_buffer_bytes"`

	// Delay distribution tail bounds (log-bucket upper bounds).
	InputDelayP99 int64 `json:"input_delay_p99"`

	// Fabric carries the multi-stage summary when the switch is a
	// fabric (nil — and omitted from JSON — for single switches).
	Fabric *fabric.Stats `json:"fabric,omitempty"`
}

// Runner binds a switch to its traffic and measurement state.
// Construct with New, then call Run (or Tick for custom loops).
type Runner struct {
	sw      Switch
	sources []traffic.Source
	pattern traffic.Pattern
	cfg     Config

	nextID  cell.PacketID
	tracker *stats.DelayTracker
	occ     stats.Occupancy
	rounds  stats.Welford
	bytes   stats.Welford
	peak    stats.MaxInt64
	sizes   []int

	// into is sources under the interface the draw polls them through;
	// batches are the arrival batches it fills (batch.go).
	into    []traffic.IntoSource
	batches []*batch

	// skips caches each source's optional SkipSource interface; nil
	// (always, outside fast mode) means the source must be polled
	// every slot. fastEvery is the fast-mode stats subsampling
	// interval, 0 in the bit-exact default.
	skips     []traffic.SkipSource
	fastEvery int64

	// rr and br cache the switch's optional reporter capabilities so
	// the per-slot loop does no interface assertions.
	rr RoundsReporter
	br BytesReporter

	// pool is the packet pool, fed by the switch's release hook and
	// drained by the arrival loop.
	pool cell.Pool

	// deliverFn is the persistent Step callback (a per-slot closure
	// would heap-allocate); warmup and slotDelivered carry its per-call
	// state.
	deliverFn     func(cell.Delivery)
	warmup        int64
	slotDelivered int64

	offeredPackets int64
	offeredCopies  int64
	delivered      int64

	// startSlot is 0 for a fresh run and the resume slot after a
	// Restore; Run picks the loop up from it.
	startSlot int64

	onDelivery func(cell.Delivery) // optional, attached with OnDelivery

	series *SeriesRecorder // optional, attached with Observe

	// Observability (DESIGN.md §8), attached with Instrument.
	obs          *obs.Observer
	metricsEvery int64
	metricsFn    func(slot int64, metrics []obs.Metric)
}

// New prepares a run of sw under the given traffic pattern. root
// seeds the traffic sources (one substream per input port).
func New(sw Switch, pat traffic.Pattern, cfg Config, root *xrand.Rand) *Runner {
	n := sw.Ports()
	cfg = cfg.withDefaults(n)
	if cfg.Fast {
		// The fast pattern reports the same String/EffectiveLoad/
		// MeanFanout, so results and sweep keys stay comparable.
		pat = traffic.Fast(pat)
	}
	warmup := cfg.warmup()
	r := &Runner{
		sw:      sw,
		sources: traffic.BuildSources(pat, n, root),
		pattern: pat,
		cfg:     cfg,
		tracker: stats.NewDelayTracker(warmup),
		sizes:   make([]int, n),
		into:    make([]traffic.IntoSource, n),
		pool:    cell.NewPool(n),
	}
	for i, src := range r.sources {
		// Every source BuildSources returns draws into caller-owned
		// storage; one that did not could not fill a batch.
		r.into[i] = src.(traffic.IntoSource)
	}
	r.batches = r.newBatches()
	if cfg.Fast {
		r.fastEvery = fastStatsEvery
		r.tracker.EnableDeferred(n, fastStatsEvery)
		r.tracker.EnableSampling(fastStatsEvery)
		r.skips = make([]traffic.SkipSource, n)
		for i, src := range r.sources {
			r.skips[i], _ = src.(traffic.SkipSource)
		}
	}
	r.rr, _ = capabilities(sw).(RoundsReporter)
	r.br, _ = capabilities(sw).(BytesReporter)
	sw.SetReleaseHook(r.pool.Put)
	r.deliverFn = r.handleDelivery
	return r
}

// Switch returns the switch the runner drives, as it was given to New
// (including any checker or test wrapper).
func (r *Runner) Switch() Switch { return r.sw }

// Config returns the runner's effective configuration, defaults
// applied.
func (r *Runner) Config() Config { return r.cfg }

// Tracker exposes the run's delay tracker for analyses beyond the
// Results digest (per-output breakdowns, histograms). Read it after
// Run returns.
func (r *Runner) Tracker() *stats.DelayTracker { return r.tracker }

// Instrument attaches the observability layer to the underlying
// switch. Call before Run; the instrumentation makes no RNG draws, so
// an instrumented run is bit-identical to an unobserved one.
func (r *Runner) Instrument(o *obs.Observer) {
	r.sw.SetObserver(o)
	r.obs = o
}

// capabilities returns the switch whose read-only optional interfaces,
// RoundsReporter and BytesReporter, describe the run: sw itself, or the
// switch a checker wraps — the checker forwards neither. The engine
// still drives sw.
func capabilities(sw Switch) check.Switch {
	if ck, ok := sw.(*check.Checker); ok {
		return ck.Inner()
	}
	return sw
}

// OnMetricsEvery registers fn to receive a metrics snapshot every
// `every` slots (at slots every-1, 2*every-1, ... — i.e. after every
// full block of `every` slots). It requires a prior Instrument with a
// metrics-enabled observer; otherwise fn never fires.
func (r *Runner) OnMetricsEvery(every int64, fn func(slot int64, metrics []obs.Metric)) {
	if every <= 0 {
		panic("switchsim: non-positive metrics interval")
	}
	r.metricsEvery = every
	r.metricsFn = fn
}

// WarmupSlots returns the number of slots excluded from statistics.
func (r *Runner) WarmupSlots() int64 { return r.cfg.warmup() }

// OnDelivery registers fn to observe every delivery as it happens,
// in delivery order, before the engine's own accounting. It makes no
// RNG draws and must not mutate the simulation.
func (r *Runner) OnDelivery(fn func(cell.Delivery)) {
	r.onDelivery = fn
}

// Run simulates the configured number of slots (or fewer, if the
// switch goes unstable) and returns the measurements. After a
// Restore it continues from the snapshot's slot instead of slot 0.
func (r *Runner) Run(name string) Results {
	res, err := r.RunWithCheckpoints(name, 0, nil)
	if err != nil {
		// Unreachable: errors only arise from the checkpoint path,
		// which a zero interval disables.
		panic(err)
	}
	return res
}

// RunWithCheckpoints is Run with a periodic snapshot: when every > 0,
// sink receives a snapshot blob after each block of `every` slots
// (resuming at slots every, 2*every, ...), except at the very end of
// the run where there is nothing left to resume. A zero interval is
// exactly Run — the loop is shared, so checkpointing cannot change
// what is simulated, only observe it.
func (r *Runner) RunWithCheckpoints(name string, every int64, sink CheckpointFunc) (Results, error) {
	if every > 0 {
		if sink == nil {
			return Results{}, fmt.Errorf("switchsim: checkpoint interval %d without a sink", every)
		}
		// Fail before simulating, not at the first checkpoint.
		if err := r.Snapshottable(); err != nil {
			return Results{}, err
		}
	}
	warmup := r.WarmupSlots()
	res := Results{
		Algorithm:   name,
		Pattern:     r.pattern.String(),
		Load:        r.pattern.EffectiveLoad(r.sw.Ports()),
		Ports:       r.sw.Ports(),
		Seed:        r.cfg.Seed,
		WarmupSlots: warmup,
	}

	slot := r.startSlot
	for slot < r.cfg.Slots {
		// A segment never crosses a checkpoint boundary: the draw is at
		// rest when runTo returns, so the snapshot's traffic section is
		// the source state at exactly this slot.
		end := r.cfg.Slots
		if every > 0 {
			end = min(end, (slot/every+1)*every)
		}
		if slot, res.Unstable = r.runTo(slot, end, warmup); res.Unstable {
			res.UnstableAt = slot - 1
			break
		}
		if slot < r.cfg.Slots {
			blob, err := r.Snapshot(name, slot)
			if err != nil {
				return res, err
			}
			if err := sink(slot, blob); err != nil {
				return res, err
			}
		}
	}
	res.Slots = slot

	// End-of-run drift check: a stable switch ends a long run with an
	// O(1) backlog, while an oversubscribed one accumulates cells in
	// proportion to the run length. Catching the drift here flags
	// saturated points even when the run was too short for the backlog
	// to reach the absolute ceiling above.
	if !res.Unstable {
		n := int64(r.sw.Ports())
		driftLimit := 50 * n
		if rel := res.Slots * n / 100; rel > driftLimit {
			driftLimit = rel
		}
		if r.sw.BufferedCells() > driftLimit {
			res.Unstable = true
			res.UnstableAt = res.Slots
		}
	}

	r.tracker.FlushDeferred()
	res.OfferedPackets = r.offeredPackets
	res.OfferedCopies = r.offeredCopies
	res.Completed = r.tracker.Completed()
	if r.fastEvery > 1 {
		// Fast mode tracks completion on a 1-in-K packet sample
		// (DESIGN.md §12); scale back to an estimate of the true count.
		res.Completed *= r.fastEvery
	}
	res.Delivered = r.delivered
	res.InputDelay = summarize(r.tracker.InputOriented())
	res.OutputDelay = summarize(r.tracker.OutputOriented())
	res.UnicastInputDelay = summarize(r.tracker.UnicastInputOriented())
	res.MulticastInputDelay = summarize(r.tracker.MulticastInputOriented())
	res.InputDelayP99 = r.tracker.InputHistogram().Quantile(0.99)
	res.AvgQueue = finite(r.occ.Average())
	res.MaxQueue = r.occ.Maximum()
	res.Rounds = summarize(&r.rounds)
	res.AvgBufferBytes = finite(r.bytes.Mean())
	res.PeakBufferBytes = r.peak.Value()
	if measured := slot - warmup; measured > 0 {
		res.Throughput = float64(r.delivered) / float64(measured) / float64(r.sw.Ports())
	}
	if fr, ok := r.sw.(FabricReporter); ok {
		res.Fabric = fr.FabricStats()
	}
	return res, nil
}

// tick simulates one slot with the draw inline: arrivals, switch
// step, sampling. Run goes through runTo; this is the single-slot form
// the allocation guards and slot benchmarks drive directly.
func (r *Runner) tick(slot, warmup int64) {
	b := r.batches[0]
	r.fill(b, slot, slot+1)
	r.arrive(b, 0, slot, warmup)
	r.step(slot, warmup)
}

// step runs the switch for one slot whose arrivals are in, and samples
// the statistics.
func (r *Runner) step(slot, warmup int64) {
	busy := r.sw.BufferedCells() > 0
	r.warmup = warmup
	r.slotDelivered = 0
	r.sw.Step(slot, r.deliverFn)
	if r.series != nil {
		rounds := 0
		if r.rr != nil {
			rounds = r.rr.LastRounds()
		}
		r.series.observe(slot, r.sw, r.slotDelivered, rounds)
	}
	if r.metricsFn != nil && r.obs.MetricsOn() && (slot+1)%r.metricsEvery == 0 {
		r.metricsFn(slot, r.obs.Metrics.Snapshot())
	}

	if slot >= warmup {
		// Fast mode subsamples the per-slot occupancy/rounds/memory
		// walk to every fastEvery-th measured slot: the means stay
		// unbiased (slot choice is independent of the sampled state),
		// while MaxQueue and PeakBufferBytes become subsampled
		// approximations (DESIGN.md §12).
		if r.fastEvery > 1 && (slot-warmup)%r.fastEvery != 0 {
			return
		}
		r.occ.Sample(r.sw.QueueSizes(r.sizes))
		if r.rr != nil && busy {
			r.rounds.Add(float64(r.rr.LastRounds()))
		}
		if r.br != nil {
			total := r.br.BufferedBytes()
			r.bytes.Add(float64(total) / float64(r.sw.Ports()))
			r.peak.Observe(total)
		}
	}
}

// handleDelivery is the engine's accounting for one delivered copy.
// It is installed once as deliverFn and reads its slot context from
// the runner, so stepping a slot allocates no closure.
func (r *Runner) handleDelivery(d cell.Delivery) {
	if r.onDelivery != nil {
		r.onDelivery(d)
	}
	r.slotDelivered++
	if d.Slot >= r.warmup {
		r.delivered++
	}
	r.tracker.Deliver(d)
}

// Describe renders the headline numbers of a Results for logs.
func (res Results) Describe() string {
	state := "stable"
	if res.Unstable {
		state = fmt.Sprintf("UNSTABLE@%d", res.UnstableAt)
	}
	return fmt.Sprintf("%s %s load=%.3f: inDelay=%.2f outDelay=%.2f avgQ=%.2f maxQ=%d thr=%.3f rounds=%.2f [%s]",
		res.Algorithm, res.Pattern, res.Load,
		res.InputDelay.Mean, res.OutputDelay.Mean, res.AvgQueue, res.MaxQueue,
		res.Throughput, res.Rounds.Mean, state)
}
