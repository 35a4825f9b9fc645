package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracedRun runs a small deterministic 4x4 FIFOMS simulation with the
// observability layer attached, streaming its event trace into a
// buffer, and returns the JSONL bytes plus the run's results. Warmup
// is disabled so every delivery counts. With checked set the run goes
// through the invariant checker, which must hand on the same events and
// find nothing.
func tracedRun(t *testing.T, slots int64, checked bool) ([]byte, switchsim.Results) {
	t.Helper()
	const n, seed = 4, 2004
	pat, err := traffic.BernoulliAtLoad(0.6, 0.3, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := switchsim.Config{Slots: slots, WarmupFrac: -1, Seed: seed}
	runner, ck, release := experiment.RunSeeding.NewRunner(experiment.FIFOMS, n, pat, cfg, checked)
	defer release()

	var buf bytes.Buffer
	tr := obs.NewTracer(64) // tiny ring: exercises mid-run streaming
	tr.OnFull(EventSink(&buf))
	o := &obs.Observer{Trace: tr, Metrics: obs.NewRegistry()}
	if !runner.Instrument(o) {
		t.Fatal("fifoms switch did not accept the observer")
	}
	res := runner.Run("fifoms")
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
	got, _ := tracedRun(t, 20, checked)
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
	raw, res := tracedRun(t, 400, false)
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
