package dsweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/scenario"
)

// The chaos battery: every test here runs a real coordinator and real
// workers over loopback TCP and asserts the merged table is
// byte-identical to a single-process Sweep.Run — under clean fleets,
// crashes mid-point, heartbeat loss, and tampered frames — and that
// every failure is visible in the fleet counters.

// testSpec is a small grid that still exercises every result shape:
// two algorithms, two reachable loads, and one unreachable load (1.5
// under bernoulli fanout ~2.1) that yields skipped points.
func testSpec() Spec {
	return Spec{Scenario: scenario.Scenario{
		Name:       "dsweep-chaos",
		N:          4,
		Slots:      2000,
		Seed:       42,
		Traffic:    scenario.TrafficSpec{Family: "bernoulli", B: 0.3},
		Algorithms: []string{"fifoms", "oqfifo"},
		Loads:      []float64{0.3, 0.6, 1.5},
	}}
}

// goldenTable runs the spec's sweep in-process — the reference every
// distributed table must match byte for byte.
func goldenTable(t *testing.T, sp Spec) []byte {
	t.Helper()
	s, err := sp.Sweep()
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}
	tbl, err := s.Run()
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return mustJSON(t, tbl)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// startCoordinator builds, binds and serves a coordinator on loopback,
// returning the dial address and the Serve result channel.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string, <-chan *experiment.Table) {
	t.Helper()
	if cfg.Sweep == nil {
		s, err := cfg.Spec.Sweep()
		if err != nil {
			t.Fatalf("spec sweep: %v", err)
		}
		cfg.Sweep = s
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ch := make(chan *experiment.Table, 1)
	go func() {
		tbl, err := c.Serve()
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
		ch <- tbl
	}()
	return c, addr.String(), ch
}

func waitTable(t *testing.T, ch <-chan *experiment.Table) *experiment.Table {
	t.Helper()
	select {
	case tbl := <-ch:
		return tbl
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not finish within 60s")
		return nil
	}
}

func counterValue(t *testing.T, metrics []obs.Metric, name string) int64 {
	t.Helper()
	for _, m := range metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// fastConfig keeps chaos timing snappy: conn-drop recovery is
// immediate, and backoff gates are a few milliseconds.
func fastConfig() Config {
	return Config{
		Spec:        testSpec(),
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		WaitRetry:   5 * time.Millisecond,
	}
}

func TestFleetMatchesSingleProcess(t *testing.T) {
	golden := goldenTable(t, testSpec())
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, addr, ch := startCoordinator(t, fastConfig())
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := RunWorker(WorkerConfig{Addr: addr, Name: fmt.Sprintf("w%d", i), Logf: t.Logf}); err != nil {
						t.Errorf("worker %d: %v", i, err)
					}
				}(i)
			}
			tbl := waitTable(t, ch)
			wg.Wait()
			if got := mustJSON(t, tbl); string(got) != string(golden) {
				t.Fatalf("fleet of %d produced a different table\ngot:  %s\nwant: %s", workers, got, golden)
			}
			m := c.Metrics()
			if v := counterValue(t, m, obs.MetricFleetResultsMerged); v != 6 {
				t.Errorf("merged %d results, want 6", v)
			}
			if v := counterValue(t, m, obs.MetricFleetResultsRejected); v != 0 {
				t.Errorf("%d rejected results on a clean fleet", v)
			}
			if v := counterValue(t, m, obs.MetricFleetWorkersJoined); v != int64(workers) {
				t.Errorf("joined %d, want %d", v, workers)
			}
		})
	}
}

// TestCrashMidPointResumes is the headline recovery scenario: a worker
// dies after streaming one checkpoint, and the replacement resumes
// from that blob — the merged table must still equal the golden run.
func TestCrashMidPointResumes(t *testing.T) {
	golden := goldenTable(t, testSpec())
	cfg := fastConfig()
	cfg.CheckpointEvery = 200 // many checkpoints per 2000-slot point
	c, addr, ch := startCoordinator(t, cfg)

	// The doomed worker panics out of its first point after one
	// checkpoint frame; its connection drop is the crash signal.
	err := RunWorker(WorkerConfig{
		Addr: addr, Name: "doomed", Logf: t.Logf,
		Hooks: Hooks{DieAfterCheckpoints: 1},
	})
	if err == nil {
		t.Fatal("doomed worker exited cleanly")
	}

	if err := RunWorker(WorkerConfig{Addr: addr, Name: "healer", Logf: t.Logf}); err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	tbl := waitTable(t, ch)
	if got := mustJSON(t, tbl); string(got) != string(golden) {
		t.Fatalf("table after crash differs from golden\ngot:  %s\nwant: %s", got, golden)
	}

	m := c.Metrics()
	for name, min := range map[string]int64{
		obs.MetricFleetWorkersLost:       1,
		obs.MetricFleetLeasesReclaimed:   1,
		obs.MetricFleetLeasesResumed:     1,
		obs.MetricFleetCheckpointsStored: 1,
	} {
		if v := counterValue(t, m, name); v < min {
			t.Errorf("%s = %d, want >= %d", name, v, min)
		}
	}
	if v := counterValue(t, m, obs.MetricFleetResultsMerged); v != 6 {
		t.Errorf("merged %d results, want 6", v)
	}
}

// TestHeartbeatLossExpiresLease starves a lease of heartbeats: the
// zombie worker finishes its simulation but blocks before sending the
// result, with heartbeats suppressed. The coordinator must expire the
// lease, re-lease the point, and later drop the zombie's stale result.
func TestHeartbeatLossExpiresLease(t *testing.T) {
	golden := goldenTable(t, testSpec())
	cfg := fastConfig()
	cfg.LeaseTTL = 100 * time.Millisecond
	c, addr, ch := startCoordinator(t, cfg)

	leased := make(chan struct{})
	gate := make(chan struct{})
	var leaseOnce, gateOnce sync.Once
	zombieDone := make(chan error, 1)
	go func() {
		zombieDone <- RunWorker(WorkerConfig{
			Addr: addr, Name: "zombie", Logf: t.Logf,
			Hooks: Hooks{
				SuppressHeartbeats:  true,
				SuppressCheckpoints: true,
				OnLease:             func(ai, li, rep int, _ int64) { leaseOnce.Do(func() { close(leased) }) },
				ResultGate:          func(ai, li, rep int) { <-gate },
			},
		})
	}()
	<-leased // the zombie holds a lease before the healthy worker starts

	if err := RunWorker(WorkerConfig{Addr: addr, Name: "healthy", Logf: t.Logf}); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	// The table is complete; unblock the zombie so its stale result
	// arrives while the coordinator drains the fleet.
	gateOnce.Do(func() { close(gate) })
	tbl := waitTable(t, ch)
	if err := <-zombieDone; err != nil {
		t.Logf("zombie exit: %v", err) // clean Done or a drain-race write error; either is fine
	}

	if got := mustJSON(t, tbl); string(got) != string(golden) {
		t.Fatalf("table after heartbeat loss differs from golden\ngot:  %s\nwant: %s", got, golden)
	}
	m := c.Metrics()
	if v := counterValue(t, m, obs.MetricFleetLeasesExpired); v < 1 {
		t.Errorf("leases expired = %d, want >= 1", v)
	}
	if v := counterValue(t, m, obs.MetricFleetResultsMerged); v != 6 {
		t.Errorf("merged %d results, want 6", v)
	}
}

// TestTamperedResultRejected flips a byte in a result frame after its
// checksum was computed. The coordinator must count the rejection,
// drop the tamperer, re-lease the point, and keep the table golden.
func TestTamperedResultRejected(t *testing.T) {
	golden := goldenTable(t, testSpec())
	c, addr, ch := startCoordinator(t, fastConfig())

	err := RunWorker(WorkerConfig{
		Addr: addr, Name: "evil", Logf: t.Logf,
		Hooks: Hooks{TamperResult: func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("tampering worker exited with %v, want a rejection", err)
	}

	if err := RunWorker(WorkerConfig{Addr: addr, Name: "honest", Logf: t.Logf}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	tbl := waitTable(t, ch)
	if got := mustJSON(t, tbl); string(got) != string(golden) {
		t.Fatalf("table after tampering differs from golden\ngot:  %s\nwant: %s", got, golden)
	}
	m := c.Metrics()
	if v := counterValue(t, m, obs.MetricFleetResultsRejected); v != 1 {
		t.Errorf("rejected %d results, want 1", v)
	}
	if v := counterValue(t, m, obs.MetricFleetResultsMerged); v != 6 {
		t.Errorf("merged %d results, want 6", v)
	}
}

// rawClient speaks the wire protocol by hand for adversarial cases the
// worker implementation cannot produce.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr, name string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rc := &rawClient{t: t, conn: conn, br: bufio.NewReader(conn)}
	rc.send(Frame{Kind: KindHello, Name: name})
	if f := rc.read(); f.Kind != KindWelcome {
		t.Fatalf("handshake reply kind %d, want welcome", f.Kind)
	}
	return rc
}

func (rc *rawClient) send(f Frame) {
	rc.t.Helper()
	if err := WriteFrame(rc.conn, f); err != nil {
		rc.t.Fatalf("raw send: %v", err)
	}
}

func (rc *rawClient) read() Frame {
	rc.t.Helper()
	f, err := ReadFrame(rc.br)
	if err != nil {
		rc.t.Fatalf("raw read: %v", err)
	}
	return f
}

// TestForgedCoordinatesRejected returns a well-checksummed result
// whose point identifies as a different grid cell than the lease — a
// forgery the checksum cannot catch, which coordinate validation must.
func TestForgedCoordinatesRejected(t *testing.T) {
	golden := goldenTable(t, testSpec())
	c, addr, ch := startCoordinator(t, fastConfig())

	rc := dialRaw(t, addr, "forger")
	rc.send(Frame{Kind: KindClaim})
	lease := rc.read()
	if lease.Kind != KindLease {
		t.Fatalf("claim reply kind %d, want lease", lease.Kind)
	}
	forged := mustJSON(t, experiment.Point{Algorithm: "bogus", Load: 9.9})
	rc.send(Frame{Kind: KindResult, LeaseID: lease.LeaseID, Sum: Checksum(forged), Blob: forged})
	if f := rc.read(); f.Kind != KindError || !strings.Contains(f.Msg, "identifies as") {
		t.Fatalf("forged result reply = kind %d msg %q, want a coordinate rejection", f.Kind, f.Msg)
	}
	rc.conn.Close()

	if err := RunWorker(WorkerConfig{Addr: addr, Name: "honest", Logf: t.Logf}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	tbl := waitTable(t, ch)
	if got := mustJSON(t, tbl); string(got) != string(golden) {
		t.Fatalf("table after forgery differs from golden\ngot:  %s\nwant: %s", got, golden)
	}
	if v := counterValue(t, c.Metrics(), obs.MetricFleetResultsRejected); v != 1 {
		t.Errorf("rejected %d results, want 1", v)
	}
}

// TestProtocolViolationsClosed covers the remaining adversarial
// frames: a duplicate claim and a checkpoint with a bad checksum, each
// of which must be counted and close the connection.
func TestProtocolViolationsClosed(t *testing.T) {
	c, addr, ch := startCoordinator(t, fastConfig())

	t.Run("duplicate claim", func(t *testing.T) {
		rc := dialRaw(t, addr, "greedy")
		rc.send(Frame{Kind: KindClaim})
		if f := rc.read(); f.Kind != KindLease {
			t.Fatalf("first claim reply kind %d", f.Kind)
		}
		rc.send(Frame{Kind: KindClaim})
		if f := rc.read(); f.Kind != KindError {
			t.Fatalf("duplicate claim reply kind %d, want error", f.Kind)
		}
		rc.conn.Close()
	})

	t.Run("corrupt checkpoint", func(t *testing.T) {
		rc := dialRaw(t, addr, "corrupt")
		rc.send(Frame{Kind: KindClaim})
		lease := rc.read()
		if lease.Kind != KindLease {
			t.Fatalf("claim reply kind %d", lease.Kind)
		}
		rc.send(Frame{Kind: KindCheckpoint, LeaseID: lease.LeaseID, Slot: 7, Sum: 0xbad, Blob: []byte("snapshot")})
		if f := rc.read(); f.Kind != KindError || !strings.Contains(f.Msg, "checksum") {
			t.Fatalf("corrupt checkpoint reply = kind %d msg %q", f.Kind, f.Msg)
		}
		rc.conn.Close()
	})

	if err := RunWorker(WorkerConfig{Addr: addr, Name: "honest", Logf: t.Logf}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	waitTable(t, ch)
	m := c.Metrics()
	if v := counterValue(t, m, obs.MetricFleetDuplicateClaims); v != 1 {
		t.Errorf("duplicate claims = %d, want 1", v)
	}
	if v := counterValue(t, m, obs.MetricFleetCheckpointsRejected); v != 1 {
		t.Errorf("rejected checkpoints = %d, want 1", v)
	}
}

// TestResumeDirPreload gives the coordinator a checkpoint dir with
// some points already finished: they must be merged without leasing,
// and the rest completed by the fleet — table still golden.
func TestResumeDirPreload(t *testing.T) {
	sp := testSpec()
	golden := goldenTable(t, sp)

	dir := t.TempDir()
	s, err := sp.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	s.CheckpointDir = dir
	// Pre-finish two points exactly as a previous coordinator would
	// have persisted them.
	for _, cell := range [][2]int{{0, 0}, {1, 2}} {
		pt, err := s.RunPointAt(cell[0], cell[1], 0, experiment.PointRun{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveFinishedPoint(cell[0], cell[1], 0, pt); err != nil {
			t.Fatal(err)
		}
	}

	cfg := fastConfig()
	cfg.Sweep = s
	c, addr, ch := startCoordinator(t, cfg)
	if err := RunWorker(WorkerConfig{Addr: addr, Name: "w", Logf: t.Logf}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	tbl := waitTable(t, ch)
	if got := mustJSON(t, tbl); string(got) != string(golden) {
		t.Fatalf("preloaded table differs from golden\ngot:  %s\nwant: %s", got, golden)
	}
	m := c.Metrics()
	if v := counterValue(t, m, obs.MetricFleetPointsPreloaded); v != 2 {
		t.Errorf("preloaded %d points, want 2", v)
	}
	if v := counterValue(t, m, obs.MetricFleetResultsMerged); v != 4 {
		t.Errorf("merged %d results, want 4", v)
	}
}

// TestFullyPreloadedServesImmediately: every point already on disk —
// Serve completes with no workers at all.
func TestFullyPreloadedServesImmediately(t *testing.T) {
	sp := testSpec()
	golden := goldenTable(t, sp)

	dir := t.TempDir()
	s, err := sp.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	s.CheckpointDir = dir
	// Persist every point, the skipped ones included.
	for ai := range s.Algorithms {
		for li := range s.Loads {
			pt, err := s.RunPointAt(ai, li, 0, experiment.PointRun{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SaveFinishedPoint(ai, li, 0, pt); err != nil {
				t.Fatal(err)
			}
		}
	}

	cfg := fastConfig()
	cfg.Sweep = s
	c, _, ch := startCoordinator(t, cfg)
	tbl := waitTable(t, ch)
	if got := mustJSON(t, tbl); string(got) != string(golden) {
		t.Fatalf("fully preloaded table differs from golden")
	}
	if v := counterValue(t, c.Metrics(), obs.MetricFleetPointsPreloaded); v != 6 {
		t.Errorf("preloaded %d points, want 6", v)
	}
}

// TestSpecSweepMismatchRejected: a coordinator whose local sweep and
// worker-facing spec disagree must fail at construction.
func TestSpecSweepMismatchRejected(t *testing.T) {
	sp := testSpec()
	s, err := sp.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 43 // drifted
	if _, err := NewCoordinator(Config{Sweep: s, Spec: sp}); err == nil {
		t.Fatal("coordinator accepted a spec/sweep seed mismatch")
	}
	s.Seed = sp.Scenario.Seed
	s.Fast = true
	if _, err := NewCoordinator(Config{Sweep: s, Spec: sp}); err == nil {
		t.Fatal("coordinator accepted a fast sweep under an exact spec")
	}
	s.Fast = false
	s.Replications = 2
	if _, err := NewCoordinator(Config{Sweep: s, Spec: sp}); err == nil {
		t.Fatal("coordinator accepted a spec/sweep replication mismatch")
	}
}
