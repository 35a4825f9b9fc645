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
// to crash holding a lease, starve heartbeats and forge results
// without patching the production path. All fields are inert when
// zero.
type Hooks struct {
	// SuppressHeartbeats stops the heartbeat goroutine from sending, so
	// the coordinator sees a silent worker and expires its lease.
	SuppressHeartbeats bool
	// TamperResult rewrites the result payload after its checksum was
	// computed — a corrupted or malicious frame the coordinator must
	// reject.
	TamperResult func(json []byte) []byte
	// ResultGate runs after a point is simulated, before its result is
	// sent; tests use it to sequence multi-worker races. A non-nil
	// error abandons the lease with its result unsent and RunWorker
	// returns it — a process crash while holding a lease.
	ResultGate func(ai, li, rep int) error
	// OnLease observes every granted lease.
	OnLease func(ai, li, rep int)
}

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

	// Heartbeat state: the goroutine reads it under hbMu to know which
	// lease (if any) to keep alive.
	hbMu    sync.Mutex
	hbLease uint64 // 0 = no active lease
}

// RunWorker connects to a coordinator, claims cells until the
// sweep is done, and returns nil on a clean Done. It returns an error
// on connection loss, a coordinator rejection, or a ResultGate
// error.
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

	return w.claimLoop()
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

// heartbeatLoop keeps the active lease (if any) alive. It runs beside
// the simulation, so a cell may compute for many multiples of the
// heartbeat interval without its lease expiring: liveness is
// independent of progress.
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
			id := w.hbLease
			w.hbMu.Unlock()
			if id == 0 {
				continue
			}
			// A failed write means the connection is gone; the claim
			// loop's next read fails too, so just stop.
			if w.send(Frame{Kind: KindHeartbeat, LeaseID: id}) != nil {
				return
			}
		}
	}
}

func (w *worker) setLease(id uint64) {
	w.hbMu.Lock()
	w.hbLease = id
	w.hbMu.Unlock()
}

// claimLoop is the worker's main loop: claim, run, report, repeat.
func (w *worker) claimLoop() error {
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
			if err := w.runLease(f); err != nil {
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

// runLease simulates one leased point from slot 0 and reports its
// result.
func (w *worker) runLease(f Frame) error {
	if w.cfg.Hooks.OnLease != nil {
		w.cfg.Hooks.OnLease(f.AI, f.LI, f.Rep)
	}
	w.setLease(f.LeaseID)
	defer w.setLease(0)
	w.logf("lease %d: cell (%d,%d,%d)", f.LeaseID, f.AI, f.LI, f.Rep)

	pt, err := w.sweep.RunPointAt(f.AI, f.LI, f.Rep, experiment.PointRun{})
	if err != nil {
		return err
	}
	if w.cfg.Hooks.ResultGate != nil {
		if err := w.cfg.Hooks.ResultGate(f.AI, f.LI, f.Rep); err != nil {
			return err
		}
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
