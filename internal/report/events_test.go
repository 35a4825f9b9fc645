package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/obs"
	"voqsim/internal/roster"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracedRun runs a small deterministic n-port simulation of algo at
// load 0.6 with the observability layer attached, streaming its event
// trace into a buffer, and returns the JSONL bytes plus the run's
// results. Warmup is disabled so every delivery counts. With checked
// set the run goes through the invariant checker, which must hand on
// the same events and find nothing.
func tracedRun(t *testing.T, algo experiment.Algorithm, n int, slots int64, checked bool) ([]byte, switchsim.Results) {
	t.Helper()
	const seed = 2004
	pat, err := traffic.BernoulliAtLoad(0.6, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := switchsim.Config{Slots: slots, WarmupFrac: -1, Seed: seed}
	runner, ck, release := experiment.RunSeeding.NewRunner(algo, n, pat, cfg, checked)
	defer release()

	var buf bytes.Buffer
	tr := obs.NewTracer(64) // tiny ring: exercises mid-run streaming
	tr.OnFull(EventSink(&buf))
	o := &obs.Observer{Trace: tr, Metrics: obs.NewRegistry()}
	runner.Instrument(o)
	res := runner.Run(algo.Name)
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("streaming tracer dropped %d events", tr.Dropped())
	}
	if checked && ck.Err() != nil {
		t.Fatalf("checker verdict on the traced run: %v", ck.Err())
	}
	return buf.Bytes(), res
}

// TestTraceGolden pins the wire format and the event stream of a tiny
// deterministic run: the simulator draws all randomness from xrand
// (pure uint64 arithmetic), so the trace is bit-identical across
// platforms. The same bytes must come out when the run is instrumented
// through the invariant checker (Checker.SetObserver). Regenerate with:
// go test ./internal/report/ -run TraceGolden -update
func TestTraceGolden(t *testing.T) {
	for _, checked := range []bool{false, true} {
		testTraceGolden(t, checked)
	}
}

func testTraceGolden(t *testing.T, checked bool) {
	got, _ := tracedRun(t, experiment.FIFOMS, 4, 20, checked)
	golden := filepath.Join("testdata", "trace_4x4_fifoms.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("checked=%v: trace diverges from golden at line %d:\n got: %s\nwant: %s", checked, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("checked=%v: trace length differs from golden: got %d lines, want %d", checked, len(gl), len(wl))
	}
}

// TestTraceReplaysToDeliveredCount is the acceptance check for the
// trace's completeness: parsing the JSONL back and replaying its
// departure events must reproduce exactly the run's delivered-copy and
// completed-packet counts, and its arrival events the offered-packet
// count.
func TestTraceReplaysToDeliveredCount(t *testing.T) {
	raw, res := tracedRun(t, experiment.FIFOMS, 4, 400, false)
	events, err := ReadEventsJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var arrivals, departures, completed int64
	for _, e := range events {
		switch e.Type {
		case obs.EvArrival:
			arrivals++
		case obs.EvDeparture:
			departures++
			if e.Aux == 1 {
				completed++
			}
		}
	}
	if departures != res.Delivered {
		t.Errorf("trace departures = %d, run delivered %d copies", departures, res.Delivered)
	}
	if completed != res.Completed {
		t.Errorf("trace last-copy departures = %d, run completed %d packets", completed, res.Completed)
	}
	if arrivals != res.OfferedPackets {
		t.Errorf("trace arrivals = %d, run offered %d packets", arrivals, res.OfferedPackets)
	}
	if departures == 0 {
		t.Fatal("trace recorded no departures; the run cannot have been empty")
	}
}

// TestTraceEveryArchitecture is the roster's trace battery: on every
// roster architecture and on a fat tree, a checked run's trace is the
// unchecked run's byte for byte, the checker (I7 included) finds
// nothing, and the trace holds one arrival event per offered packet and
// one departure event per delivered copy.
func TestTraceEveryArchitecture(t *testing.T) {
	type entry struct {
		algo experiment.Algorithm
		n    int
	}
	var entries []entry
	for _, a := range roster.For(roster.Trace) {
		entries = append(entries, entry{a, 8})
	}
	top, err := fabric.ParseSpec("fattree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	fat, err := experiment.WithTopology(experiment.FIFOMS, top, fabric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	entries = append(entries, entry{fat, top.Ingress()})
	for _, e := range entries {
		t.Run(e.algo.Name, func(t *testing.T) {
			raw, res := tracedRun(t, e.algo, e.n, 300, false)
			if checkedRaw, _ := tracedRun(t, e.algo, e.n, 300, true); !bytes.Equal(checkedRaw, raw) {
				t.Errorf("checked trace (%d bytes) differs from the unchecked one (%d bytes)", len(checkedRaw), len(raw))
			}
			events, err := ReadEventsJSONL(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var arrivals, departures int64
			for _, ev := range events {
				switch ev.Type {
				case obs.EvArrival:
					arrivals++
				case obs.EvDeparture:
					departures++
				}
			}
			if arrivals != res.OfferedPackets || departures != res.Delivered || departures == 0 {
				t.Errorf("trace holds %d arrivals and %d departures; the run offered %d packets and delivered %d copies",
					arrivals, departures, res.OfferedPackets, res.Delivered)
			}
		})
	}
}
