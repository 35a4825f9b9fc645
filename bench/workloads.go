package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"voqsim"
	"voqsim/internal/traffic"
)

// workloadFiles are the correctness pins: one JSON file per workload
// with its inputs, the reason it exists and the digest of its outputs
// at the default seed. They are embedded so the binary finds them from
// any working directory.
//
//go:embed workloads/*.json
var workloadFiles embed.FS

// workloadOrder is the order workloads run and print in.
var workloadOrder = []string{
	"sw16-mcast", "sw64-ucast", "sw64-burst-bcast", "sw1024-mcast",
	"sw256-mcast-fast", "fab-fattree8", "sweep-paper", "voqd-loopback",
}

// Workload kinds.
const (
	kindSwitch = "switch" // one switch behind voqsim.Run
	kindFabric = "fabric" // a multi-stage fabric behind voqsim.Run, sequential and Parallel: 2
	kindSweep  = "sweep"  // paper figures behind voqsim.Figure
	kindVoqd   = "voqd"   // the live daemon over loopback sockets
)

type trafficSpec struct {
	Kind      string  `json:"kind"` // "uniform" or "burst"
	Load      float64 `json:"load"`
	MaxFanout int     `json:"max_fanout,omitempty"`
	B         float64 `json:"b,omitempty"`
	EOn       float64 `json:"e_on,omitempty"`
}

// facade is the traffic as the program under test receives it.
func (t trafficSpec) facade() (voqsim.Traffic, error) {
	switch t.Kind {
	case "uniform":
		return voqsim.UniformTrafficAtLoad(t.Load, t.MaxFanout), nil
	case "burst":
		return voqsim.BurstTrafficAtLoad(t.Load, t.B, t.EOn), nil
	}
	return voqsim.Traffic{}, fmt.Errorf("bench: unknown traffic kind %q", t.Kind)
}

// pattern resolves the same traffic for the traced driver, which
// builds its sources itself.
func (t trafficSpec) pattern(n int) (traffic.Pattern, error) {
	switch t.Kind {
	case "uniform":
		return traffic.UniformAtLoad(t.Load, t.MaxFanout, n)
	case "burst":
		return traffic.BurstAtLoad(t.Load, t.B, t.EOn, n)
	}
	return nil, fmt.Errorf("bench: unknown traffic kind %q", t.Kind)
}

// workloadInputs holds every kind's inputs; a kind reads its own.
type workloadInputs struct {
	// switch and fabric
	Ports    int          `json:"ports,omitempty"`
	Topology string       `json:"topology,omitempty"`
	Traffic  *trafficSpec `json:"traffic,omitempty"`
	Slots    int64        `json:"slots,omitempty"`
	Fast     bool         `json:"fast,omitempty"`
	// ThroughputTol is how far sim_throughput may sit from the offered
	// load at a seed without a pinned digest (default 0.01).
	ThroughputTol float64 `json:"throughput_tol,omitempty"`

	// sweep
	Figures       []string `json:"figures,omitempty"`
	SlotsPerPoint int64    `json:"slots_per_point,omitempty"`
	Workers       int      `json:"workers,omitempty"`

	// voqd
	SlotPeriodUs   float64 `json:"slot_period_us,omitempty"`
	MaxInputCells  int     `json:"max_input_cells,omitempty"`
	IngressBacklog int     `json:"ingress_backlog,omitempty"`
	EgressBacklog  int     `json:"egress_backlog,omitempty"`
	PayloadBytes   int     `json:"payload_bytes,omitempty"`
	Window         int64   `json:"window_copies,omitempty"`
	ModelSlotRate  float64 `json:"open_loop_model_slots_per_s,omitempty"`
	ClosedLoopRep  float64 `json:"closed_loop_rep_s,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Kind string `json:"kind"`
	// Seed is the workload's default seed, the one Digest is pinned at.
	Seed uint64 `json:"seed"`
	// MinReps is the fewest timed repetitions a run may report on.
	MinReps int            `json:"min_reps"`
	Inputs  workloadInputs `json:"inputs"`
	// Digest is the FNV-1a digest of the workload's outputs at Seed
	// (DigestOf says of what); at any other seed correctness falls
	// back to invariants.
	Digest   string `json:"digest"`
	DigestOf string `json:"digest_of"`
}

func loadWorkload(name string) (workloadSpec, error) {
	var spec workloadSpec
	b, err := workloadFiles.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return spec, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(workloadOrder, ", "))
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("bench: workloads/%s.json: %w", name, err)
	}
	if spec.Name != name {
		return spec, fmt.Errorf("bench: workloads/%s.json names workload %q", name, spec.Name)
	}
	if spec.MinReps < 1 {
		return spec, fmt.Errorf("bench: workloads/%s.json: min_reps must be at least 1", name)
	}
	return spec, nil
}

// simConfig is the voqsim.Config a switch or fabric workload hands the
// program under test.
func (w workloadSpec) simConfig(seed uint64, parallel int) (voqsim.Config, error) {
	if w.Inputs.Traffic == nil {
		return voqsim.Config{}, fmt.Errorf("bench: workload %s has no traffic", w.Name)
	}
	tr, err := w.Inputs.Traffic.facade()
	if err != nil {
		return voqsim.Config{}, err
	}
	return voqsim.Config{
		Ports:     w.Inputs.Ports,
		Scheduler: voqsim.FIFOMS,
		Topology:  w.Inputs.Topology,
		Traffic:   tr,
		Slots:     w.Inputs.Slots,
		Seed:      seed,
		Fast:      w.Inputs.Fast,
		Parallel:  parallel,
	}, nil
}

type digester struct{ hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) addf(format string, args ...any) { fmt.Fprintf(d, format, args...) }

func (d digester) String() string { return fmt.Sprintf("fnv1a:%016x", d.Sum64()) }

// reportDigest is the FNV-1a digest of every field of a Report, floats
// in %x so the last bit counts.
func reportDigest(r voqsim.Report) string {
	d := newDigester()
	d.addf("%s|%s|%d|%x|%d|%d|%d|%t|%d|", r.Scheduler, r.Traffic, r.Ports, r.Load, r.Seed,
		r.Slots, r.WarmupSlots, r.Unstable, r.UnstableAt)
	d.addf("%x|%x|%x|%x|%d|%x|%d|%x|%x|", r.AvgInputDelay, r.AvgOutputDelay, r.AvgUnicastDelay,
		r.AvgMulticastDelay, r.InputDelayP99, r.AvgQueueSize, r.MaxQueueSize, r.MeanRounds, r.Throughput)
	d.addf("%d|%d|%x|%d|", r.CompletedPackets, r.DeliveredCopies, r.AvgBufferBytes, r.PeakBufferBytes)
	if f := r.Fabric; f != nil {
		d.addf("%s|%d|%d|%d|%d|%d|%d|%v|%x|%d|%d", f.Topology, f.Nodes, f.Links, f.AdmittedPackets,
			f.AdmittedCopies, f.DeliveredCopies, f.DroppedCopies, f.DropsByHop, f.HopMean, f.HopMin, f.HopMax)
	}
	return d.String()
}

// figureDigest extends d with everything a regenerated figure holds.
func figureDigest(d digester, f *voqsim.FigureResult) {
	d.addf("%s|%s|%s|%q|", f.Name, f.Title, f.Text, f.Violations)
	for _, l := range f.Loads {
		d.addf("%x,", l)
	}
	keys := make([]string, 0, len(f.Series))
	for k := range f.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.addf("|%s:", k)
		for _, v := range f.Series[k] {
			d.addf("%x,", v)
		}
	}
}

// checkReport decides whether one repetition's report is correct. At
// the workload's default seed the digest must equal the pin; at any
// other seed the invariants must hold.
func (w workloadSpec) checkReport(r voqsim.Report, seed uint64) error {
	if r.Unstable {
		return fmt.Errorf("unstable at slot %d", r.UnstableAt)
	}
	if seed == w.Seed {
		if got := reportDigest(r); got != w.Digest {
			return fmt.Errorf("report digest %s differs from the pinned %s", got, w.Digest)
		}
		return nil
	}
	tol := w.Inputs.ThroughputTol
	if tol == 0 {
		tol = 0.01
	}
	if math.Abs(r.Throughput-r.Load) > tol*r.Load {
		return fmt.Errorf("sim_throughput %.4f is not within %.0f%% of the offered load %.4f", r.Throughput, 100*tol, r.Load)
	}
	if f := r.Fabric; f != nil {
		// admitted = delivered + dropped + buffered, and the end-of-run
		// drift check bounds what a stable run may still buffer.
		buffered := f.AdmittedCopies - f.DeliveredCopies - f.DroppedCopies
		if buffered < 0 || buffered > f.AdmittedCopies/10 {
			return fmt.Errorf("fabric copies do not add up: admitted %d, delivered %d, dropped %d",
				f.AdmittedCopies, f.DeliveredCopies, f.DroppedCopies)
		}
	}
	return nil
}
