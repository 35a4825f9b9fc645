package daemon_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"voqsim/internal/cell"
	"voqsim/internal/check"
	"voqsim/internal/daemon"
	"voqsim/internal/experiment"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// startDaemon builds and starts a manual-clock daemon (slots advance
// only via Advance, so every test is deterministic) and registers
// cleanup.
func startDaemon(t *testing.T, cfg daemon.Config) *daemon.Daemon {
	t.Helper()
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		if err := d.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return d
}

// sendFrame writes one data frame to the daemon's input `in` and
// returns once it is visible in that input's ring (or dropped), so
// manual-clock tests stay race-free.
func sendAll(t *testing.T, d *daemon.Daemon, conn *net.UDPConn, frames [][]byte, targets []*net.UDPAddr, inputs []int) {
	t.Helper()
	for i, f := range frames {
		if _, err := conn.WriteToUDP(f, targets[inputs[i]]); err != nil {
			t.Fatal(err)
		}
	}
	waitIngress(t, d, int64(len(frames)))
}

// waitIngress polls until the daemon has accounted for `want` received
// datagrams (ring, rejected or dropped), i.e. the kernel and reader
// goroutines have caught up.
func waitIngress(t *testing.T, d *daemon.Daemon, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		q, err := d.Queues()
		if err != nil {
			t.Fatal(err)
		}
		var recv int64
		for _, in := range q.Inputs {
			recv += in.RecvFrames
		}
		if recv >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingress saw %d of %d datagrams", recv, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func udpSender(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// drain advances the daemon until the switch is empty and everything
// admitted has been delivered.
func drain(t *testing.T, d *daemon.Daemon) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if err := d.Advance(50); err != nil {
			t.Fatal(err)
		}
		m, err := d.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.Daemon.BufferedCells == 0 && m.Daemon.InFlightPackets == 0 {
			return
		}
	}
	t.Fatal("switch did not drain")
}

// TestLoopbackMirrorsSimulator is the end-to-end loopback test: drive
// a live daemon over real sockets with the library load generator,
// then replay the daemon's own admitted-arrival transcript through the
// batch simulator with the same algorithm and seed — under the full
// invariant checker — and require the delivery streams to agree frame
// for frame: same copies, same outputs, same arrival and delivery
// slots, same completion flags, valid payloads.
func TestLoopbackMirrorsSimulator(t *testing.T) {
	const n, modelSlots, seed = 4, 300, 11
	d := startDaemon(t, daemon.Config{
		Ports:          n,
		Seed:           seed,
		Record:         true,
		IngressBacklog: modelSlots + 16, // hold the whole offered load: this test wants zero drops
		EgressBacklog:  4096,
	})

	type obsKey struct {
		src int
		seq uint64
		out int
	}
	type obsVal struct {
		arrival int64
		slot    int64
		last    bool
	}
	// Written by the receiver goroutine, read below once WaitFrames has
	// counted every frame (a frame is counted after its callback).
	observed := map[obsKey]obsVal{}
	recv, err := daemon.NewReceiver(n, func(dv daemon.Delivery) {
		observed[obsKey{dv.Src, dv.Seq, dv.Out}] = obsVal{dv.Arrival, dv.Slot, dv.Last}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := d.Subscribe(-1, recv.Addr()); err != nil {
		t.Fatal(err)
	}

	pat, err := traffic.UniformAtLoad(0.8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := daemon.RunLoad(daemon.LoadConfig{
		Targets: d.IngressAddrs(),
		Pattern: pat,
		Seed:    seed,
		Slots:   modelSlots,
		Payload: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesSent == 0 {
		t.Fatal("load generator sent nothing")
	}
	waitIngress(t, d, rep.FramesSent)
	drain(t, d)

	m, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Daemon.RingDrops != 0 || m.Daemon.BadFrames != 0 || m.Daemon.EgressDrops != 0 || m.Daemon.AdmitErrors != 0 {
		t.Fatalf("lossless run expected: %+v", m.Daemon)
	}
	if m.Daemon.Admitted != rep.FramesSent || m.Daemon.AdmittedCopies != rep.CopiesExpected {
		t.Fatalf("admitted %d packets / %d copies, sent %d / %d",
			m.Daemon.Admitted, m.Daemon.AdmittedCopies, rep.FramesSent, rep.CopiesExpected)
	}

	// Wait for the last egress datagrams to land at the receiver.
	if got := recv.WaitFrames(m.Daemon.Delivered, 10*time.Second); got != m.Daemon.Delivered {
		t.Fatalf("receiver saw %d of %d delivered copies", got, m.Daemon.Delivered)
	}
	rs := recv.Stats()
	if rs.Bad != 0 {
		t.Fatalf("%d invalid egress frames", rs.Bad)
	}
	if rs.Completed != m.Daemon.Admitted {
		t.Fatalf("receiver completed %d packets, daemon admitted %d", rs.Completed, m.Daemon.Admitted)
	}

	// Mirror run: the daemon's transcript through the batch engine,
	// same algo and seed derivation, under the invariant checker.
	tr, err := d.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(tr.Arrivals)) != m.Daemon.Admitted {
		t.Fatalf("transcript has %d arrivals, daemon admitted %d", len(tr.Arrivals), m.Daemon.Admitted)
	}
	// seqOf maps (input, arrival slot) back to the sender's sequence
	// number: per input, admission order is send order.
	seqOf := map[[2]int64]uint64{}
	perIn := make([]uint64, n)
	for _, e := range tr.Arrivals {
		seqOf[[2]int64{int64(e.Input), e.Slot}] = perIn[e.Input]
		perIn[e.Input]++
	}
	a, err := experiment.ByName("fifoms")
	if err != nil {
		t.Fatal(err)
	}
	sw := a.New(n, xrand.New(seed).Split("switch", 0))
	runner, ck := switchsim.NewChecked(sw, tr.Pattern(),
		switchsim.Config{Slots: tr.Slots, Seed: seed}, xrand.New(seed), check.Options{})
	var mirrored int
	runner.OnDelivery(func(dv cell.Delivery) {
		seq, ok := seqOf[[2]int64{int64(dv.In), dv.Arrival}]
		if !ok {
			t.Errorf("mirror delivered a packet the transcript does not know: %+v", dv)
			return
		}
		got, ok := observed[obsKey{dv.In, seq, dv.Out}]
		if !ok {
			t.Errorf("daemon never delivered copy (src=%d, seq=%d, out=%d)", dv.In, seq, dv.Out)
			return
		}
		if got != (obsVal{dv.Arrival, dv.Slot, dv.Done}) {
			t.Errorf("copy (src=%d, seq=%d, out=%d): daemon %+v, mirror (%d,%d,%v)",
				dv.In, seq, dv.Out, got, dv.Arrival, dv.Slot, dv.Done)
		}
		mirrored++
	})
	runner.Run("fifoms")
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant violations in the mirror run: %v (%d violations)", err, len(ck.Violations()))
	}
	if int64(mirrored) != m.Daemon.Delivered {
		t.Fatalf("mirror delivered %d copies, daemon %d", mirrored, m.Daemon.Delivered)
	}
	if mirrored != len(observed) {
		t.Fatalf("receiver observed %d distinct copies, mirror %d", len(observed), mirrored)
	}
}

// TestWaitFramesOrdersCallback pins the publication order WaitFrames
// promises: a frame is counted only after its callback has returned,
// so a test may keep plain, unlocked state in the callback and read it
// as soon as WaitFrames has counted the frames it sent. The receiver
// used to count first and call back second, and the read below raced
// with the last callback (TestLoopbackMirrorsSimulator's map did).
func TestWaitFramesOrdersCallback(t *testing.T) {
	const frames = 200
	seen := map[uint64]bool{} // written by the callback, never locked
	recv, err := daemon.NewReceiver(1, func(dv daemon.Delivery) { seen[dv.Seq] = true })
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	conn, err := net.DialUDP("udp", nil, recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for seq := uint64(0); seq < frames; seq++ {
		if _, err := conn.Write(daemon.AppendDelivery(nil, 0, 0, seq, 0, 0, true, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := recv.WaitFrames(frames, 10*time.Second); got != frames {
		t.Fatalf("receiver saw %d of %d frames", got, frames)
	}
	if len(seen) != frames {
		t.Fatalf("%d frames counted, %d callbacks finished", frames, len(seen))
	}
}

// TestOverloadAccounting forces both layers of the overload policy —
// ring drops at ingress and backpressure at admission — and requires
// the counters to account for every datagram exactly.
func TestOverloadAccounting(t *testing.T) {
	const n = 4
	d := startDaemon(t, daemon.Config{
		Ports:          n,
		Seed:           1,
		MaxInputCells:  4,
		IngressBacklog: 8,
	})
	conn := udpSender(t)
	targets := d.IngressAddrs()

	// Every input unicasts to output 0: admission wants 4 cells/slot,
	// delivery capacity is 1 copy/slot, so queues hit MaxInputCells
	// and admission backpressures into the rings.
	bm := []byte{0b0001}
	const perInput = 40
	var frames [][]byte
	var inputs []int
	seqs := make([]uint64, n)
	for k := 0; k < perInput; k++ {
		for in := 0; in < n; in++ {
			frames = append(frames, daemon.AppendData(nil, in, seqs[in], n, bm, nil))
			seqs[in]++
			inputs = append(inputs, in)
		}
	}
	sendAll(t, d, conn, frames, targets, inputs)

	// All datagrams arrived before any slot ran: each ring holds its
	// capacity, the rest were dropped and counted.
	q, err := d.Queues()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range q.Inputs {
		if in.RecvFrames != perInput {
			t.Fatalf("input %d received %d datagrams, want %d", in.Port, in.RecvFrames, perInput)
		}
		if in.RingLen != 8 || in.RingDrops != perInput-8 {
			t.Fatalf("input %d: ring %d, drops %d; want 8 and %d", in.Port, in.RingLen, in.RingDrops, perInput-8)
		}
	}

	// A few slots in, the occupancy bound must hold and backpressure
	// must be counted on blocked inputs.
	if err := d.Advance(12); err != nil {
		t.Fatal(err)
	}
	q, err = d.Queues()
	if err != nil {
		t.Fatal(err)
	}
	var bp int64
	for _, in := range q.Inputs {
		if in.QueuedCells > 4 {
			t.Fatalf("input %d holds %d cells, bound is 4", in.Port, in.QueuedCells)
		}
		bp += in.BackpressureSlots
	}
	if bp == 0 {
		t.Fatal("no backpressure recorded under forced overload")
	}

	drain(t, d)
	m, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// Exact conservation: every received datagram is rejected,
	// dropped, or admitted (rings are empty after the drain).
	if m.Daemon.BadFrames != 0 {
		t.Fatalf("unexpected rejects: %d", m.Daemon.BadFrames)
	}
	if m.Daemon.RecvFrames != m.Daemon.RingDrops+m.Daemon.Admitted {
		t.Fatalf("conservation: recv %d != drops %d + admitted %d",
			m.Daemon.RecvFrames, m.Daemon.RingDrops, m.Daemon.Admitted)
	}
	if m.Daemon.Delivered != m.Daemon.AdmittedCopies || m.Daemon.Completed != m.Daemon.Admitted {
		t.Fatalf("drain incomplete: %+v", m.Daemon)
	}
}

// TestIngressRejectsHostileFrames sends undecodable and mis-addressed
// datagrams: all are counted as rejects, none are admitted, and the
// daemon keeps serving.
func TestIngressRejectsHostileFrames(t *testing.T) {
	const n = 4
	d := startDaemon(t, daemon.Config{Ports: n, Seed: 1})
	conn := udpSender(t)
	targets := d.IngressAddrs()

	frames := [][]byte{
		[]byte("garbage"),
		{'V', 'Q', 1, 1},
		daemon.AppendData(nil, 1, 0, n, []byte{0b0010}, nil), // valid frame, but sent to input 0
		daemon.AppendData(nil, 0, 0, 16, []byte{1, 0}, nil),  // wrong universe
		daemon.AppendData(nil, 0, 1, n, []byte{0b0010}, nil), // the one valid frame for input 0
	}
	for _, f := range frames {
		if _, err := conn.WriteToUDP(f, targets[0]); err != nil {
			t.Fatal(err)
		}
	}
	waitIngress(t, d, int64(len(frames)))
	drain(t, d)
	m, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Daemon.BadFrames != 4 || m.Daemon.Admitted != 1 {
		t.Fatalf("rejected %d, admitted %d; want 4 and 1", m.Daemon.BadFrames, m.Daemon.Admitted)
	}
}

// TestCheckpointRestoreResumesExactly is the crash-recovery pin: load
// the switch, checkpoint, keep running the original to collect the
// "straight" tail, then bring up a second daemon from the checkpoint
// file and require the identical delivery tail — every admitted
// (acknowledged) packet survives the crash, with the same slots,
// outputs and payload bytes on the wire.
func TestCheckpointRestoreResumesExactly(t *testing.T) {
	const n, seed, perInput = 4, 5, 12
	ckpt := filepath.Join(t.TempDir(), "voqd.snap")

	type tailCopy struct {
		id   cell.PacketID
		in   int
		out  int
		arr  int64
		slot int64
		last bool
	}
	var tailA []tailCopy
	collectA := func(dv cell.Delivery) {
		tailA = append(tailA, tailCopy{dv.ID, dv.In, dv.Out, dv.Arrival, dv.Slot, dv.Last})
	}

	// Broadcast from every input: 16 copies admitted per slot against
	// 4 deliverable, so a deep backlog is in the switch at checkpoint
	// time.
	bm := []byte{0b1111}
	mkFrames := func() ([][]byte, []int) {
		var frames [][]byte
		var inputs []int
		seqs := make([]uint64, n)
		for k := 0; k < perInput; k++ {
			for in := 0; in < n; in++ {
				// Payload bytes follow the VerifyPayload convention so
				// the resumed daemon's egress frames validate end to end.
				payload := make([]byte, 8)
				for j := range payload {
					payload[j] = byte(uint64(in) + seqs[in] + uint64(j))
				}
				frames = append(frames, daemon.AppendData(nil, in, seqs[in], n, bm, payload))
				seqs[in]++
				inputs = append(inputs, in)
			}
		}
		return frames, inputs
	}

	dA, err := daemon.New(daemon.Config{
		Ports:          n,
		Seed:           seed,
		IngressBacklog: perInput + 4,
		CheckpointPath: ckpt,
		OnDelivery:     nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	dA.Start()
	defer dA.Kill()

	conn := udpSender(t)
	frames, inputs := mkFrames()
	sendAll(t, dA, conn, frames, dA.IngressAddrs(), inputs)
	// Admit everything (one per input per slot, no backpressure at the
	// default bound): after perInput slots the rings are empty and the
	// backlog is in the switch — exactly the state the snapshot covers.
	if err := dA.Advance(perInput); err != nil {
		t.Fatal(err)
	}
	q, err := dA.Queues()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range q.Inputs {
		if in.RingLen != 0 {
			t.Fatalf("input %d still has %d frames in its ring at checkpoint time", in.Port, in.RingLen)
		}
	}
	if err := dA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mA, err := dA.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if mA.Daemon.Admitted != int64(len(frames)) {
		t.Fatalf("admitted %d of %d", mA.Daemon.Admitted, len(frames))
	}
	ckptSlot := mA.Slot

	// Straight run: keep daemon A going and collect its tail. The
	// "crash" is that daemon A is simply never consulted again after
	// this — its post-checkpoint output is only the reference.
	if err := dA.SetOnDelivery(collectA); err != nil {
		t.Fatal(err)
	}
	for len(tailA) < int(mA.Daemon.AdmittedCopies-mA.Daemon.Delivered) {
		if err := dA.Advance(25); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no clean shutdown, no final checkpoint — the snapshot
	// taken above is all the recovery gets.
	dA.Kill()

	// Recovery: a fresh daemon resumes from the checkpoint file.
	var tailB []tailCopy
	dB, err := daemon.New(daemon.Config{
		Ports:          n,
		Seed:           seed,
		IngressBacklog: perInput + 4,
		CheckpointPath: ckpt,
		Resume:         true,
		OnDelivery: func(dv cell.Delivery) {
			tailB = append(tailB, tailCopy{dv.ID, dv.In, dv.Out, dv.Arrival, dv.Slot, dv.Last})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dB.Start()
	defer dB.Shutdown()
	if got := dB.Slot(); got != ckptSlot {
		t.Fatalf("resumed at slot %d, checkpoint was at %d", got, ckptSlot)
	}

	recvB, err := daemon.NewReceiver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recvB.Close()
	if err := dB.Subscribe(-1, recvB.Addr()); err != nil {
		t.Fatal(err)
	}
	for len(tailB) < len(tailA) {
		if err := dB.Advance(25); err != nil {
			t.Fatal(err)
		}
	}

	if len(tailA) != len(tailB) {
		t.Fatalf("straight tail %d copies, resumed tail %d", len(tailA), len(tailB))
	}
	for i := range tailA {
		if tailA[i] != tailB[i] {
			t.Fatalf("tail copy %d: straight %+v, resumed %+v", i, tailA[i], tailB[i])
		}
	}

	// The resumed daemon's egress frames carry the original payloads:
	// the in-flight table survived the crash too.
	want := int64(len(tailB))
	if got := recvB.WaitFrames(want, 10*time.Second); got != want {
		t.Fatalf("resumed receiver saw %d of %d copies", got, want)
	}
	if rs := recvB.Stats(); rs.Bad != 0 {
		t.Fatalf("%d invalid frames from the resumed daemon", rs.Bad)
	}
}

// TestAdminEndpoints exercises the HTTP plane of a live (real-clock)
// daemon: /healthz from atomics, /metrics and /queues through the slot
// loop, subscribe/unsubscribe, and /checkpoint.
func TestAdminEndpoints(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "admin.snap")
	d := startDaemon(t, daemon.Config{
		Ports:           4,
		Seed:            1,
		Admin:           "127.0.0.1:0",
		SlotPeriod:      50 * time.Microsecond,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1 << 40, // cadence off the table; /checkpoint triggers it
	})
	base := fmt.Sprintf("http://%s", d.AdminAddr())

	var health struct {
		Status string `json:"status"`
		Ports  int    `json:"ports"`
		Slot   int64  `json:"slot"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Status != "ok" || health.Ports != 4 {
		t.Fatalf("healthz: %+v", health)
	}

	// The wall clock must be advancing slots on its own.
	deadline := time.Now().Add(5 * time.Second)
	for d.Slot() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot clock did not advance")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var m daemon.MetricsSnapshot
	getJSON(t, base+"/metrics", &m)
	if m.Slot == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if _, ok := m.Switch["arrivals_total"]; !ok {
		t.Fatalf("obs registry not threaded through /metrics: %v", m.Switch)
	}

	var q daemon.QueuesSnapshot
	getJSON(t, base+"/queues", &q)
	if len(q.Inputs) != 4 || len(q.Outputs) != 4 || q.MaxInputCells != 1024 {
		t.Fatalf("queues: %+v", q)
	}

	postOK(t, base+"/subscribe?out=all&addr=127.0.0.1:39999")
	getJSON(t, base+"/queues", &q)
	if q.Outputs[0].Subscribers != 1 || q.Outputs[3].Subscribers != 1 {
		t.Fatalf("subscribe did not register: %+v", q.Outputs)
	}
	postOK(t, base+"/unsubscribe?out=all&addr=127.0.0.1:39999")
	getJSON(t, base+"/queues", &q)
	if q.Outputs[0].Subscribers != 0 {
		t.Fatalf("unsubscribe did not remove: %+v", q.Outputs)
	}

	postOK(t, base+"/checkpoint")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint file after POST /checkpoint: %v", err)
	}
}

// TestAdminPprof pins the opt-in profile surface: /debug/pprof answers
// only when Config.Pprof is set, and an unconfigured daemon's admin
// plane keeps the endpoints off (404), so profiling never leaks into a
// deployment that didn't ask for it.
func TestAdminPprof(t *testing.T) {
	get := func(t *testing.T, url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	with := startDaemon(t, daemon.Config{
		Ports: 2, Seed: 1, Admin: "127.0.0.1:0", Pprof: true,
		SlotPeriod: 50 * time.Microsecond,
	})
	base := fmt.Sprintf("http://%s", with.AdminAddr())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if code := get(t, base+path); code != http.StatusOK {
			t.Errorf("GET %s with Pprof on: %d, want 200", path, code)
		}
	}
	if code := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz broken with Pprof on: %d", code)
	}

	without := startDaemon(t, daemon.Config{
		Ports: 2, Seed: 1, Admin: "127.0.0.1:0",
		SlotPeriod: 50 * time.Microsecond,
	})
	base = fmt.Sprintf("http://%s", without.AdminAddr())
	if code := get(t, base+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ without Pprof: %d, want 404", code)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func postOK(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
}
