package daemon_test

import (
	"os"
	"testing"
	"time"

	"voqsim/internal/check"
	"voqsim/internal/daemon"
	"voqsim/internal/experiment"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// TestLoopbackThroughput drives a real-clock daemon over loopback at a
// calibrated offered load, measures end-to-end delivered packets per
// second, and then replays the daemon's arrival transcript through the
// checked simulator — the live run must mirror the batch engine with
// zero invariant violations no matter how the wall clock interleaved.
//
// The measured rate is always logged. The ≥50k packets/sec floor is
// asserted when VOQD_PERF_ASSERT is set (the CI daemon job sets it);
// unset, a slow or noisy host only logs, so tier-1 stays robust on
// loaded machines.
func TestLoopbackThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback throughput run skipped in -short mode")
	}
	const (
		n          = 4
		seed       = 23
		slotPeriod = 25 * time.Microsecond // 40k slots/s x 4 inputs
		modelSlots = 60_000                // 1.5s of model time
		load       = 0.5                   // ~80k offered frames/s
	)
	d, err := daemon.New(daemon.Config{
		Ports:          n,
		Seed:           seed,
		SlotPeriod:     slotPeriod,
		Record:         true,
		MaxInputCells:  4096,
		IngressBacklog: 4096,
		EgressBacklog:  1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Shutdown()

	recv, err := daemon.NewReceiver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := d.Subscribe(-1, recv.Addr()); err != nil {
		t.Fatal(err)
	}

	pat, err := traffic.UniformAtLoad(load, 1, n) // unicast: packets == copies
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := daemon.RunLoad(daemon.LoadConfig{
		Targets:  d.IngressAddrs(),
		Pattern:  pat,
		Seed:     seed,
		Slots:    modelSlots,
		SlotRate: float64(time.Second) / float64(slotPeriod), // pace at the daemon's own slot rate
		Payload:  64,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Let the daemon finish admitting and delivering what it took.
	deadline := time.Now().Add(15 * time.Second)
	var m daemon.MetricsSnapshot
	for {
		m, err = d.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		// Every received frame must have left its ingress ring, admitted
		// or counted out: a frame still waiting in a ring is neither
		// buffered nor in flight, yet it will be delivered later.
		settled := m.Daemon.Admitted+m.Daemon.AdmitErrors+m.Daemon.RingDrops+m.Daemon.BadFrames >= m.Daemon.RecvFrames
		if m.Daemon.RecvFrames >= rep.FramesSent && settled &&
			m.Daemon.BufferedCells == 0 && m.Daemon.InFlightPackets == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not drain: %+v", m.Daemon)
		}
		time.Sleep(10 * time.Millisecond)
	}
	elapsed := time.Since(start)

	if m.Daemon.AdmitErrors != 0 {
		t.Fatalf("admission discipline violated: %d errors", m.Daemon.AdmitErrors)
	}
	delivered := m.Daemon.Delivered
	pps := float64(delivered) / elapsed.Seconds()
	lossIn := float64(m.Daemon.RingDrops) / float64(rep.FramesSent)
	t.Logf("sent %d frames in %v (%.0f fps offered); delivered %d copies end to end in %v = %.0f pkts/s; ingress drops %.2f%%, egress drops %d",
		rep.FramesSent, rep.Elapsed, rep.FrameRate, delivered, elapsed, pps, 100*lossIn, m.Daemon.EgressDrops)

	if os.Getenv("VOQD_PERF_ASSERT") != "" && pps < 50_000 {
		t.Errorf("end-to-end rate %.0f pkts/s is below the 50k floor", pps)
	}

	// Receiver-side sanity: what landed decodes and verifies. (UDP on
	// loopback under load may shed a few datagrams at the receiver
	// socket; validity is asserted, not completeness.)
	rs := recv.Stats()
	if rs.Bad != 0 {
		t.Fatalf("%d invalid egress frames", rs.Bad)
	}
	if rs.Frames == 0 {
		t.Fatal("receiver saw nothing")
	}

	// Mirror the arrival transcript through the checked batch engine:
	// zero invariant violations and the exact delivered-copy count.
	tr, err := d.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	a, err := experiment.ByName("fifoms")
	if err != nil {
		t.Fatal(err)
	}
	sw := a.New(n, xrand.New(seed).Split("switch", 0))
	// WarmupFrac -1 disables the warmup cut so Results.Delivered counts
	// every copy, comparable with the daemon's own counter.
	runner, ck := switchsim.NewChecked(sw, tr.Pattern(),
		switchsim.Config{Slots: tr.Slots, Seed: seed, WarmupFrac: -1}, xrand.New(seed), check.Options{})
	res := runner.Run("fifoms")
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant violations in the mirrored run: %v", err)
	}
	if res.Delivered != delivered {
		t.Fatalf("mirror delivered %d copies, live daemon %d", res.Delivered, delivered)
	}
}
