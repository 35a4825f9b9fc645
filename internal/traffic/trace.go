package traffic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// Trace is a recorded arrival process: the full list of arrivals of an
// n-port switch over some number of slots. Traces make experiments
// replayable across schedulers — every algorithm in a comparison sees
// the identical arrival sequence — and allow feeding externally
// captured workloads into the simulator.
type Trace struct {
	N        int   // switch size
	Slots    int64 // number of recorded slots
	Arrivals []TraceEntry
}

// TraceEntry is one recorded packet arrival.
type TraceEntry struct {
	Slot  int64 `json:"slot"`
	Input int   `json:"input"`
	Dests []int `json:"dests"`
}

// Record runs the pattern for the given number of slots and captures
// every arrival into a Trace.
func Record(pat Pattern, n int, slots int64, root *xrand.Rand) *Trace {
	sources := BuildSources(pat, n, root)
	tr := &Trace{N: n, Slots: slots}
	d := destset.New(n)
	for slot := int64(0); slot < slots; slot++ {
		for in, src := range sources {
			if src.(IntoSource).NextInto(slot, d) {
				tr.Arrivals = append(tr.Arrivals, TraceEntry{
					Slot: slot, Input: in, Dests: d.Members(nil),
				})
			}
		}
	}
	return tr
}

// Pattern returns a Pattern that replays the trace: every source
// instantiated from it emits exactly the recorded arrivals of its
// input port and nothing after the recorded horizon.
func (t *Trace) Pattern() Pattern { return tracePattern{t} }

// MeasuredLoad returns the empirical per-output load of the trace
// (total copies / (slots * n)).
func (t *Trace) MeasuredLoad() float64 {
	if t.Slots == 0 {
		return 0
	}
	copies := 0
	for _, a := range t.Arrivals {
		copies += len(a.Dests)
	}
	return float64(copies) / float64(t.Slots) / float64(t.N)
}

// MeasuredMeanFanout returns the empirical mean fanout of the trace's
// arrivals, or 0 when the trace is empty.
func (t *Trace) MeasuredMeanFanout() float64 {
	if len(t.Arrivals) == 0 {
		return 0
	}
	copies := 0
	for _, a := range t.Arrivals {
		copies += len(a.Dests)
	}
	return float64(copies) / float64(len(t.Arrivals))
}

type tracePattern struct{ t *Trace }

func (p tracePattern) NewSource(n, input int, _ *xrand.Rand) Source {
	if n != p.t.N {
		panic(fmt.Sprintf("traffic: trace recorded for N=%d replayed on N=%d", p.t.N, n))
	}
	var mine []TraceEntry
	for _, a := range p.t.Arrivals {
		if a.Input == input {
			mine = append(mine, a)
		}
	}
	sort.SliceStable(mine, func(i, j int) bool { return mine[i].Slot < mine[j].Slot })
	return &traceSource{n: n, arrivals: mine}
}

func (p tracePattern) EffectiveLoad(int) float64 { return p.t.MeasuredLoad() }
func (p tracePattern) MeanFanout(int) float64    { return p.t.MeasuredMeanFanout() }
func (p tracePattern) String() string {
	return fmt.Sprintf("trace(n=%d,slots=%d,arrivals=%d)", p.t.N, p.t.Slots, len(p.t.Arrivals))
}

type traceSource struct {
	n        int
	arrivals []TraceEntry
	next     int
}

func (s *traceSource) NextInto(slot int64, d *destset.Set) bool {
	if s.next >= len(s.arrivals) || s.arrivals[s.next].Slot != slot {
		return false
	}
	a := s.arrivals[s.next]
	s.next++
	d.Clear()
	for _, out := range a.Dests {
		d.Add(out)
	}
	return true
}

func (s *traceSource) Next(slot int64) *destset.Set {
	d := destset.New(s.n)
	if !s.NextInto(slot, d) {
		return nil
	}
	return d
}

// traceHeader is the first line of the on-disk format.
type traceHeader struct {
	N     int   `json:"n"`
	Slots int64 `json:"slots"`
}

// Write encodes the trace as JSON lines: a header line followed by one
// line per arrival. The format is stable and diff-friendly.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{N: t.N, Slots: t.Slots}); err != nil {
		return fmt.Errorf("traffic: encoding trace header: %w", err)
	}
	for i := range t.Arrivals {
		if err := enc.Encode(&t.Arrivals[i]); err != nil {
			return fmt.Errorf("traffic: encoding trace arrival %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a trace written by Write, validating every record.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h traceHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("traffic: decoding trace header: %w", err)
	}
	if h.N <= 0 || h.Slots < 0 {
		return nil, fmt.Errorf("traffic: invalid trace header n=%d slots=%d", h.N, h.Slots)
	}
	t := &Trace{N: h.N, Slots: h.Slots}
	for i := 0; ; i++ {
		var a TraceEntry
		if err := dec.Decode(&a); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("traffic: decoding trace arrival %d: %w", i, err)
		}
		if a.Slot < 0 || a.Slot >= h.Slots || a.Input < 0 || a.Input >= h.N || len(a.Dests) == 0 {
			return nil, fmt.Errorf("traffic: invalid trace arrival %d: %+v", i, a)
		}
		for _, d := range a.Dests {
			if d < 0 || d >= h.N {
				return nil, fmt.Errorf("traffic: trace arrival %d has destination %d outside [0,%d)", i, d, h.N)
			}
		}
		t.Arrivals = append(t.Arrivals, a)
	}
	return t, nil
}
