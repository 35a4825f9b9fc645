// Package traffic implements the arrival processes of the paper's
// evaluation (Section V): Bernoulli multicast traffic, uniform traffic
// with bounded fanout, and bursty on/off Markov traffic — plus a mixed
// unicast/multicast process and trace record/replay used by the
// extension experiments.
//
// The package separates a traffic *pattern* (the stochastic model and
// its parameters, a value type you can put in a table of experiments)
// from a *source* (the stateful per-input-port generator derived from
// it). Every input port of a switch gets its own Source with its own
// PRNG substream, so arrival processes at different ports are
// independent and a run is reproducible from a single seed.
package traffic

import (
	"fmt"

	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// Source generates the arrival process of one input port. Next is
// called exactly once per slot in increasing slot order and returns the
// destination set of the packet arriving at the start of that slot, or
// nil when no packet arrives. The returned set is owned by the caller.
type Source interface {
	Next(slot int64) *destset.Set
}

// IntoSource is optionally implemented by sources that can write a
// slot's draw into a caller-owned destination set instead of
// allocating a fresh one. NextInto makes exactly the same RNG draws in
// exactly the same order as Next (every built-in source implements
// Next *as* NextInto into a fresh set, so the two can never diverge)
// and reports whether a packet arrived; when it returns false the
// set's content is unspecified. Every source BuildSources returns
// implements it, and the engine, Record and voqload draw only through
// it, which keeps steady-state arrival generation allocation-free.
type IntoSource interface {
	NextInto(slot int64, d *destset.Set) bool
}

// Pattern is a stochastic traffic model with fixed parameters. A
// Pattern is an immutable description; NewSource instantiates the
// per-port generator state.
type Pattern interface {
	// NewSource returns the source for one input port of an n-port
	// switch, drawing randomness from r.
	NewSource(n, input int, r *xrand.Rand) Source
	// EffectiveLoad returns the offered load per output port of an
	// n-port switch under this pattern, following the paper's formulas.
	EffectiveLoad(n int) float64
	// MeanFanout returns the expected fanout of an arriving packet.
	MeanFanout(n int) float64
	// String describes the pattern for reports, e.g. "bernoulli(p=0.5,b=0.2)".
	String() string
}

// BuildSources instantiates one source per input port of an n-port
// switch. Each port receives an independent substream of root, so the
// processes are independent and insensitive to construction order.
//
// The per-port generator states live in one contiguous slab: the
// engine's slot loop advances every port's generator every slot, and n
// individually-allocated states cost n scattered cache lines where the
// slab costs n/2. Only the placement differs — each state holds
// exactly the substream Split derives.
func BuildSources(pat Pattern, n int, root *xrand.Rand) []Source {
	sources := make([]Source, n)
	rands := make([]xrand.Rand, n)
	for i := range sources {
		rands[i] = *root.Split("traffic", i)
		sources[i] = pat.NewSource(n, i, &rands[i])
	}
	return sources
}

// Bernoulli is the paper's Bernoulli traffic: in each slot an input is
// busy with probability P, and the arriving packet addresses each
// output independently with probability B.
//
// The paper defines the effective load as P*B*N, which presumes the
// mean fanout of the Bernoulli destination draw is exactly B*N. A draw
// can come out empty (probability (1-B)^N); this implementation treats
// an empty draw as *no arrival*, which keeps the mean number of copies
// offered per slot exactly P*B*N and therefore keeps the paper's load
// formula exact. (Resampling until non-empty would inflate the load by
// 1/(1-(1-B)^N).)
type Bernoulli struct {
	P float64 // probability an input has an arrival in a slot
	B float64 // probability each output is addressed
}

// NewSource implements Pattern.
func (t Bernoulli) NewSource(n, input int, r *xrand.Rand) Source {
	validateProb("bernoulli p", t.P)
	validateProb("bernoulli b", t.B)
	return &bernoulliSource{p: t.P, b: t.B, n: n, r: r}
}

// EffectiveLoad implements Pattern: p*b*n.
func (t Bernoulli) EffectiveLoad(n int) float64 { return t.P * t.B * float64(n) }

// MeanFanout implements Pattern: b*n copies offered per busy slot.
func (t Bernoulli) MeanFanout(n int) float64 { return t.B * float64(n) }

func (t Bernoulli) String() string { return fmt.Sprintf("bernoulli(p=%.4g,b=%.4g)", t.P, t.B) }

type bernoulliSource struct {
	p, b float64
	n    int
	r    *xrand.Rand
}

func (s *bernoulliSource) NextInto(_ int64, d *destset.Set) bool {
	if !s.r.Bool(s.p) {
		return false
	}
	d.RandomBernoulli(s.r, s.b)
	return !d.Empty()
}

func (s *bernoulliSource) Next(slot int64) *destset.Set {
	d := destset.New(s.n)
	if !s.NextInto(slot, d) {
		return nil
	}
	return d
}

// Uniform is the paper's uniform traffic: an arrival with probability P
// per slot whose fanout is uniform on {1..MaxFanout}, destinations a
// uniform random subset. MaxFanout = 1 is pure unicast traffic.
type Uniform struct {
	P         float64
	MaxFanout int
}

// NewSource implements Pattern.
func (t Uniform) NewSource(n, input int, r *xrand.Rand) Source {
	validateProb("uniform p", t.P)
	if t.MaxFanout < 1 || t.MaxFanout > n {
		panic(fmt.Sprintf("traffic: maxFanout %d outside [1,%d]", t.MaxFanout, n))
	}
	return &uniformSource{p: t.P, maxFanout: t.MaxFanout, n: n, r: r}
}

// EffectiveLoad implements Pattern: p*(1+maxFanout)/2.
func (t Uniform) EffectiveLoad(int) float64 { return t.P * (1 + float64(t.MaxFanout)) / 2 }

// MeanFanout implements Pattern: (1+maxFanout)/2.
func (t Uniform) MeanFanout(int) float64 { return (1 + float64(t.MaxFanout)) / 2 }

func (t Uniform) String() string {
	return fmt.Sprintf("uniform(p=%.4g,maxFanout=%d)", t.P, t.MaxFanout)
}

type uniformSource struct {
	p         float64
	maxFanout int
	n         int
	r         *xrand.Rand
}

func (s *uniformSource) NextInto(_ int64, d *destset.Set) bool {
	if !s.r.Bool(s.p) {
		return false
	}
	k := 1 + s.r.Intn(s.maxFanout)
	d.RandomKSubset(s.r, k)
	return true
}

func (s *uniformSource) Next(slot int64) *destset.Set {
	d := destset.New(s.n)
	if !s.NextInto(slot, d) {
		return nil
	}
	return d
}

// Burst is the paper's bursty traffic: each input alternates between
// an off state (no arrivals) and an on state (one arrival every slot,
// all arrivals of a burst sharing one destination set drawn at burst
// start with per-output probability B). State transitions happen at
// the end of each slot: off→on with probability 1/EOff, on→off with
// probability 1/EOn, making EOff and EOn the mean state lengths.
//
// An all-empty destination draw at burst start is redrawn; with the
// paper's parameters (B=0.5, N=16) this has probability 2^-16 and a
// negligible effect on the load formula B*N*EOn/(EOff+EOn).
type Burst struct {
	EOff float64 // mean off-state length in slots (>= 0)
	EOn  float64 // mean on-state length in slots (>= 1)
	B    float64 // per-output destination probability
}

// NewSource implements Pattern. Each source starts in the off state,
// matching an initially empty switch.
func (t Burst) NewSource(n, input int, r *xrand.Rand) Source {
	if t.EOn < 1 {
		panic("traffic: burst EOn must be >= 1")
	}
	if t.EOff < 0 {
		panic("traffic: burst EOff must be >= 0")
	}
	validateProb("burst b", t.B)
	if t.B == 0 {
		panic("traffic: burst b must be positive")
	}
	return &burstSource{
		pOn:  probFromMean(t.EOff), // off -> on
		pOff: 1 / t.EOn,            // on -> off
		b:    t.B, n: n, r: r,
	}
}

// probFromMean converts a mean state length to a per-slot exit
// probability; a zero mean means the state is left immediately.
func probFromMean(mean float64) float64 {
	if mean <= 0 {
		return 1
	}
	p := 1 / mean
	if p > 1 {
		p = 1
	}
	return p
}

// EffectiveLoad implements Pattern: b*n*EOn/(EOff+EOn).
func (t Burst) EffectiveLoad(n int) float64 {
	return t.B * float64(n) * t.EOn / (t.EOff + t.EOn)
}

// MeanFanout implements Pattern: b*n.
func (t Burst) MeanFanout(n int) float64 { return t.B * float64(n) }

func (t Burst) String() string {
	return fmt.Sprintf("burst(Eoff=%.4g,Eon=%.4g,b=%.4g)", t.EOff, t.EOn, t.B)
}

type burstSource struct {
	pOn, pOff float64
	b         float64
	n         int
	r         *xrand.Rand
	on        bool
	dests     *destset.Set // destination set of the current burst
}

func (s *burstSource) NextInto(_ int64, d *destset.Set) bool {
	have := false
	if s.on {
		d.CopyFrom(s.dests)
		have = true
	}
	// End-of-slot state transition.
	if s.on {
		if s.r.Bool(s.pOff) {
			s.on = false
		}
	} else if s.r.Bool(s.pOn) {
		s.on = true
		if s.dests == nil {
			s.dests = destset.New(s.n)
		}
		for {
			s.dests.RandomBernoulli(s.r, s.b)
			if !s.dests.Empty() {
				break
			}
		}
	}
	return have
}

func (s *burstSource) Next(slot int64) *destset.Set {
	d := destset.New(s.n)
	if !s.NextInto(slot, d) {
		return nil
	}
	return d
}

// Mixed models traffic with both unicast and multicast packets, the
// regime the paper's introduction calls out as hard for TATRA. An
// arrival occurs with probability P; with probability MulticastFrac it
// is a multicast packet whose fanout is uniform on {2..MaxFanout},
// otherwise a unicast packet to a uniform output.
type Mixed struct {
	P             float64
	MulticastFrac float64
	MaxFanout     int
}

// NewSource implements Pattern.
func (t Mixed) NewSource(n, input int, r *xrand.Rand) Source {
	validateProb("mixed p", t.P)
	validateProb("mixed multicastFrac", t.MulticastFrac)
	if t.MaxFanout < 2 || t.MaxFanout > n {
		panic(fmt.Sprintf("traffic: mixed maxFanout %d outside [2,%d]", t.MaxFanout, n))
	}
	return &mixedSource{p: t.P, frac: t.MulticastFrac, maxFanout: t.MaxFanout, n: n, r: r}
}

// MeanFanout implements Pattern.
func (t Mixed) MeanFanout(int) float64 {
	multi := (2 + float64(t.MaxFanout)) / 2
	return t.MulticastFrac*multi + (1 - t.MulticastFrac)
}

// EffectiveLoad implements Pattern: p * mean fanout.
func (t Mixed) EffectiveLoad(n int) float64 { return t.P * t.MeanFanout(n) }

func (t Mixed) String() string {
	return fmt.Sprintf("mixed(p=%.4g,mc=%.4g,maxFanout=%d)", t.P, t.MulticastFrac, t.MaxFanout)
}

type mixedSource struct {
	p, frac   float64
	maxFanout int
	n         int
	r         *xrand.Rand
}

func (s *mixedSource) NextInto(_ int64, d *destset.Set) bool {
	if !s.r.Bool(s.p) {
		return false
	}
	if s.r.Bool(s.frac) {
		k := 2 + s.r.Intn(s.maxFanout-1)
		d.RandomKSubset(s.r, k)
	} else {
		d.Clear()
		d.Add(s.r.Intn(s.n))
	}
	return true
}

func (s *mixedSource) Next(slot int64) *destset.Set {
	d := destset.New(s.n)
	if !s.NextInto(slot, d) {
		return nil
	}
	return d
}

func validateProb(name string, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("traffic: %s = %v outside [0,1]", name, p))
	}
}
