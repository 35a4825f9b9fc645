package dsweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"voqsim/internal/experiment"
)

// Hooks are worker test instrumentation: the chaos battery uses them
// to crash mid-point, starve heartbeats and forge results without
// patching the production path. All fields are inert when zero.
type Hooks struct {
	// DieAfterCheckpoints, when > 0, makes the worker abandon its
	// current point after sending that many checkpoint frames —
	// simulating a process crash mid-simulation. RunWorker returns
	// errWorkerDied.
	DieAfterCheckpoints int
	// SuppressHeartbeats stops the heartbeat goroutine from sending, so
	// the coordinator sees a silent worker and expires its lease.
	SuppressHeartbeats bool
	// SuppressCheckpoints stops mid-point snapshot frames (heartbeats
	// still flow), so a re-leased point restarts from slot 0.
	SuppressCheckpoints bool
	// TamperResult rewrites the result payload after its checksum was
	// computed — a corrupted or malicious frame the coordinator must
	// reject.
	TamperResult func(json []byte) []byte
	// ResultGate runs after a point is simulated, before its result is
	// sent; tests use it to sequence multi-worker races.
	ResultGate func(ai, li, rep int)
	// OnLease observes every granted lease and the slot it resumes
	// from (0 = fresh).
	OnLease func(ai, li, rep int, resumeSlot int64)
}

// errWorkerDied marks a hook-induced crash; also used as the panic
// sentinel that aborts RunPointAt from inside its checkpoint sink.
var errWorkerDied = fmt.Errorf("dsweep: worker died (test hook)")

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Name is the worker's display name; the coordinator suffixes it
	// with a connection sequence number, so collisions are harmless.
	Name string
	// Logf, when non-nil, receives one line per lease/result event.
	Logf func(format string, args ...any)
	// Hooks is test instrumentation; leave zero in production.
	Hooks Hooks
}

// worker is one live session against a coordinator.
type worker struct {
	cfg   WorkerConfig
	conn  net.Conn
	br    *bufio.Reader
	sweep *experiment.Sweep

	writeMu sync.Mutex

	// Heartbeat state: the goroutine reads these under hbMu to know
	// which lease (if any) to keep alive and what progress to report.
	hbMu    sync.Mutex
	hbLease uint64 // 0 = no active lease
	hbSlot  int64
}

// RunWorker connects to a coordinator, claims cells until the
// sweep is done, and returns nil on a clean Done. It returns an error
// on connection loss, a coordinator rejection, or a hook-induced
// crash.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	conn, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("dsweep: dialing coordinator: %w", err)
	}
	defer conn.Close()
	w := &worker{cfg: cfg, conn: conn, br: bufio.NewReader(conn)}

	if err := w.send(Frame{Kind: KindHello, Name: cfg.Name}); err != nil {
		return fmt.Errorf("dsweep: hello: %w", err)
	}
	welcome, err := ReadFrame(w.br)
	if err != nil {
		return fmt.Errorf("dsweep: reading welcome: %w", err)
	}
	if welcome.Kind == KindError {
		return fmt.Errorf("dsweep: coordinator rejected hello: %s", welcome.Msg)
	}
	if welcome.Kind != KindWelcome {
		return fmt.Errorf("dsweep: expected welcome, got frame kind %d", welcome.Kind)
	}
	spec, err := ParseSpec(welcome.Spec)
	if err != nil {
		return err
	}
	w.sweep, err = spec.Sweep()
	if err != nil {
		return err
	}

	hbStop := make(chan struct{})
	defer close(hbStop)
	hbEvery := time.Duration(welcome.HeartbeatMs) * time.Millisecond
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	go w.heartbeatLoop(hbEvery, hbStop)

	return w.claimLoop(welcome.CheckpointEvery)
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// send serializes frame writes: the claim loop and the heartbeat
// goroutine share the connection.
func (w *worker) send(f Frame) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return WriteFrame(w.conn, f)
}

// heartbeatLoop keeps the active lease (if any) alive. Checkpoint
// frames also refresh the lease, but a point can legitimately compute
// for many multiples of the heartbeat interval between checkpoints, so
// the explicit heartbeat is what makes liveness independent of
// progress.
func (w *worker) heartbeatLoop(every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if w.cfg.Hooks.SuppressHeartbeats {
				continue
			}
			w.hbMu.Lock()
			id, slot := w.hbLease, w.hbSlot
			w.hbMu.Unlock()
			if id == 0 {
				continue
			}
			// A failed write means the connection is gone; the claim
			// loop's next read fails too, so just stop.
			if w.send(Frame{Kind: KindHeartbeat, LeaseID: id, Slot: slot}) != nil {
				return
			}
		}
	}
}

func (w *worker) setLease(id uint64, slot int64) {
	w.hbMu.Lock()
	w.hbLease, w.hbSlot = id, slot
	w.hbMu.Unlock()
}

func (w *worker) setSlot(slot int64) {
	w.hbMu.Lock()
	if slot > w.hbSlot {
		w.hbSlot = slot
	}
	w.hbMu.Unlock()
}

// claimLoop is the worker's main loop: claim, run, report, repeat.
func (w *worker) claimLoop(checkpointEvery int64) error {
	for {
		if err := w.send(Frame{Kind: KindClaim}); err != nil {
			return fmt.Errorf("dsweep: claim: %w", err)
		}
		f, err := ReadFrame(w.br)
		if err != nil {
			return fmt.Errorf("dsweep: reading claim response: %w", err)
		}
		switch f.Kind {
		case KindLease:
			if err := w.runLease(f, checkpointEvery); err != nil {
				return err
			}
		case KindWait:
			time.Sleep(time.Duration(f.RetryMs) * time.Millisecond)
		case KindDone:
			w.logf("sweep complete")
			return nil
		case KindError:
			return fmt.Errorf("dsweep: coordinator rejected worker: %s", f.Msg)
		default:
			return fmt.Errorf("dsweep: unexpected claim response kind %d", f.Kind)
		}
	}
}

// runLease simulates one leased point and reports its result.
func (w *worker) runLease(f Frame, checkpointEvery int64) (err error) {
	if Checksum(f.Blob) != f.Sum {
		return fmt.Errorf("dsweep: lease %d resume blob failed its checksum", f.LeaseID)
	}
	var resumeSlot int64
	if len(f.Blob) > 0 {
		resumeSlot = -1 // unknown until the snapshot is restored; informational only
	}
	if w.cfg.Hooks.OnLease != nil {
		w.cfg.Hooks.OnLease(f.AI, f.LI, f.Rep, resumeSlot)
	}
	w.setLease(f.LeaseID, 0)
	defer w.setLease(0, 0)
	w.logf("lease %d: cell (%d,%d,%d), resume blob %d bytes", f.LeaseID, f.AI, f.LI, f.Rep, len(f.Blob))

	pr := experiment.PointRun{
		Resume:          f.Blob,
		CheckpointEvery: checkpointEvery,
	}
	sent := 0
	var sendErr error
	if !w.cfg.Hooks.SuppressCheckpoints {
		pr.Checkpoint = func(slot int64, blob []byte) {
			w.setSlot(slot)
			if e := w.send(Frame{Kind: KindCheckpoint, LeaseID: f.LeaseID, Slot: slot, Sum: Checksum(blob), Blob: blob}); e != nil && sendErr == nil {
				sendErr = e
			}
			sent++
			if w.cfg.Hooks.DieAfterCheckpoints > 0 && sent >= w.cfg.Hooks.DieAfterCheckpoints {
				// Abort the simulation from inside its checkpoint sink;
				// RunPointAt's deferred release still runs.
				panic(errWorkerDied)
			}
		}
	}

	pt, err := w.runPoint(f.AI, f.LI, f.Rep, pr)
	if err != nil {
		return err
	}
	if sendErr != nil {
		return fmt.Errorf("dsweep: streaming checkpoint: %w", sendErr)
	}
	if w.cfg.Hooks.ResultGate != nil {
		w.cfg.Hooks.ResultGate(f.AI, f.LI, f.Rep)
	}

	payload, err := json.Marshal(pt)
	if err != nil {
		return fmt.Errorf("dsweep: encoding point: %w", err)
	}
	sum := Checksum(payload)
	if w.cfg.Hooks.TamperResult != nil {
		payload = w.cfg.Hooks.TamperResult(payload)
	}
	if err := w.send(Frame{Kind: KindResult, LeaseID: f.LeaseID, Sum: sum, Blob: payload}); err != nil {
		return fmt.Errorf("dsweep: sending result: %w", err)
	}
	w.logf("lease %d: result sent (%s@%g)", f.LeaseID, pt.Algorithm, pt.Load)
	return nil
}

// runPoint wraps RunPointAt so a hook-induced crash panic is contained
// to the one point.
func (w *worker) runPoint(ai, li, rep int, pr experiment.PointRun) (pt experiment.Point, err error) {
	defer func() {
		if r := recover(); r != nil {
			if fmt.Sprint(r) == errWorkerDied.Error() {
				err = errWorkerDied
				return
			}
			panic(r)
		}
	}()
	return w.sweep.RunPointAt(ai, li, rep, pr)
}
