package dsweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"voqsim/internal/experiment"
	"voqsim/internal/obs"
)

// Config parameterizes a coordinator. Sweep and Spec must describe the
// same grid: Sweep is the coordinator-side object (table metadata,
// resume-dir policy, progress sink), Spec is what workers rebuild
// their simulations from; NewCoordinator cross-checks them so a drift
// bug fails at construction, not as a corrupted table.
type Config struct {
	Sweep *experiment.Sweep
	Spec  Spec

	// LeaseTTL is how long a lease survives without a heartbeat before
	// the cell is reclaimed (default 10s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the heartbeat interval sent to workers in the
	// welcome frame (default LeaseTTL/4).
	HeartbeatEvery time.Duration
	// BackoffBase/BackoffCap shape the re-lease backoff of a failing
	// point: base<<(failures-1), capped (defaults 100ms, 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// WaitRetry is the retry hint sent when every point is leased
	// (default 200ms).
	WaitRetry time.Duration

	// Metrics receives the fleet counters (see internal/obs names);
	// a private registry is created when nil.
	Metrics *obs.Registry
	// Progress, when non-nil, receives one serialized event per merged
	// cell, mirroring experiment.Sweep.Progress.
	Progress func(experiment.Progress)
	// Logf, when non-nil, receives one diagnostic line per fleet event
	// (joins, losses, re-leases, rejections).
	Logf func(format string, args ...any)
}

// fleetMetrics caches the registry lookups; all access is under the
// coordinator mutex (obs.Registry is not concurrency-safe).
type fleetMetrics struct {
	joined, lost, granted, expired, reclaimed *obs.Counter
	merged, rejected, stale, duplicate        *obs.Counter
	preloaded                                 *obs.Counter
	connected                                 *obs.Gauge
}

// Coordinator owns one sweep's grid: it leases cells to connected
// workers, merges their results, and reclaims work from workers that
// die. Serve returns the completed table, byte-identical to Sweep.Run
// on the same sweep.
type Coordinator struct {
	cfg      Config
	specJSON []byte
	ln       net.Listener

	mu        sync.Mutex
	lt        *leaseTable
	cells     []experiment.Point // finished cells, by cell number
	tbl       *experiment.Table
	reg       *obs.Registry
	m         fleetMetrics
	conns     map[*coordConn]struct{}
	connSeq   int
	merged    int // results merged during this serve
	preloaded int // cells loaded from the resume dir
	total     int
	start     time.Time
	finished  bool
	doneCh    chan struct{}
}

// coordConn is one worker connection.
type coordConn struct {
	conn    net.Conn
	id      string // unique owner key: name#seq
	name    string // worker-reported display name
	writeMu sync.Mutex
}

func (cc *coordConn) send(f Frame) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	return WriteFrame(cc.conn, f)
}

// NewCoordinator validates the configuration and builds the
// coordinator, preloading finished cells from the sweep's
// CheckpointDir when set.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Sweep == nil {
		return nil, fmt.Errorf("dsweep: coordinator without a sweep")
	}
	if err := cfg.Sweep.Validate(); err != nil {
		return nil, err
	}
	specJSON, err := cfg.Spec.Marshal()
	if err != nil {
		return nil, err
	}
	if err := checkSpecAgainstSweep(&cfg.Spec, cfg.Sweep); err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 4
	}
	if cfg.HeartbeatEvery < time.Millisecond {
		cfg.HeartbeatEvery = time.Millisecond
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.WaitRetry <= 0 {
		cfg.WaitRetry = 200 * time.Millisecond
	}

	tbl, err := cfg.Sweep.NewTable()
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:      cfg,
		specJSON: specJSON,
		tbl:      tbl,
		reg:      reg,
		conns:    make(map[*coordConn]struct{}),
		cells:    make([]experiment.Point, cfg.Sweep.Cells()),
		total:    cfg.Sweep.Cells(),
		doneCh:   make(chan struct{}),
	}
	c.m = fleetMetrics{
		joined:    reg.Counter(obs.MetricFleetWorkersJoined),
		lost:      reg.Counter(obs.MetricFleetWorkersLost),
		granted:   reg.Counter(obs.MetricFleetLeasesGranted),
		expired:   reg.Counter(obs.MetricFleetLeasesExpired),
		reclaimed: reg.Counter(obs.MetricFleetLeasesReclaimed),
		merged:    reg.Counter(obs.MetricFleetResultsMerged),
		rejected:  reg.Counter(obs.MetricFleetResultsRejected),
		stale:     reg.Counter(obs.MetricFleetStaleFrames),
		duplicate: reg.Counter(obs.MetricFleetDuplicateClaims),
		preloaded: reg.Counter(obs.MetricFleetPointsPreloaded),
		connected: reg.Gauge(obs.MetricFleetWorkersConnected),
	}
	c.lt = newLeaseTable(c.total, cfg.LeaseTTL, cfg.BackoffBase, cfg.BackoffCap, cfg.WaitRetry)

	// Resume-dir preload: finished cells merge straight into the
	// table and are never leased, exactly as a resumable local sweep
	// loads them instead of re-simulating.
	for cell := 0; cell < c.total; cell++ {
		if pt, ok := cfg.Sweep.LoadFinishedPoint(cfg.Sweep.CellAt(cell)); ok {
			c.lt.markDone(cell)
			c.place(cell, pt)
			c.preloaded++
			c.m.preloaded.Inc()
		}
	}
	return c, nil
}

// place stores a finished cell (already marked done in the lease
// table) and, once every replication of its grid point is in, folds
// them into the table exactly as Sweep.Run does.
func (c *Coordinator) place(cell int, pt experiment.Point) {
	c.cells[cell] = pt
	ai, li, rep := c.cfg.Sweep.CellAt(cell)
	first, reps := cell-rep, max(c.cfg.Sweep.Replications, 1)
	for i := first; i < first+reps; i++ {
		if c.lt.states[i] != pointDone {
			return
		}
	}
	c.tbl.SetPoint(ai, li, experiment.MergePoints(c.cells[first:first+reps]))
}

// checkSpecAgainstSweep rejects a Config whose worker-facing spec
// describes a different grid than the coordinator-side sweep.
func checkSpecAgainstSweep(sp *Spec, s *experiment.Sweep) error {
	ss, err := sp.Sweep()
	if err != nil {
		return err
	}
	if ss.N != s.N || ss.Slots != s.Slots || ss.Seed != s.Seed ||
		ss.Check != s.Check || ss.Fast != s.Fast ||
		ss.Cells() != s.Cells() ||
		len(ss.Loads) != len(s.Loads) || len(ss.Algorithms) != len(s.Algorithms) {
		return fmt.Errorf("dsweep: spec and sweep disagree (n/slots/seed/check/fast/grid shape)")
	}
	for i := range s.Loads {
		if ss.Loads[i] != s.Loads[i] {
			return fmt.Errorf("dsweep: spec load %d is %v, sweep has %v", i, ss.Loads[i], s.Loads[i])
		}
	}
	for i := range s.Algorithms {
		if ss.Algorithms[i].Name != s.Algorithms[i].Name {
			return fmt.Errorf("dsweep: spec algorithm %d is %q, sweep has %q", i, ss.Algorithms[i].Name, s.Algorithms[i].Name)
		}
	}
	return nil
}

// pointLabel names a leased cell in log lines and progress events; the
// lease table's point numbers are the sweep's cell numbers.
func (c *Coordinator) pointLabel(point int) string { return c.cfg.Sweep.CellLabel(point) }

// Listen binds the coordinator to addr (e.g. "127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (c *Coordinator) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Listen).
func (c *Coordinator) Addr() net.Addr {
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// Metrics snapshots the fleet counters.
func (c *Coordinator) Metrics() []obs.Metric {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Snapshot()
}

// Serve accepts workers until every cell is merged, then tells
// the fleet it is done and returns the completed table. Call Listen
// first. Serve blocks indefinitely while points remain and no worker
// connects — the fleet may still be starting — so callers wanting a
// deadline should wrap it themselves.
func (c *Coordinator) Serve() (*experiment.Table, error) {
	if c.ln == nil {
		return nil, fmt.Errorf("dsweep: Serve before Listen")
	}
	c.mu.Lock()
	c.start = time.Now()
	if c.lt.done() {
		c.finish()
	}
	c.mu.Unlock()

	go c.acceptLoop()
	stopExpiry := make(chan struct{})
	go c.expiryLoop(stopExpiry)

	<-c.doneCh
	close(stopExpiry)

	// Tell every connected worker the sweep is over, then give the
	// fleet a moment to disconnect itself before forcing the issue;
	// a worker that already exited just yields a failed write.
	c.mu.Lock()
	for cc := range c.conns {
		go cc.send(Frame{Kind: KindDone})
	}
	c.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.conns)
		c.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.ln.Close()
	c.mu.Lock()
	for cc := range c.conns {
		cc.conn.Close()
	}
	tbl := c.tbl
	c.mu.Unlock()
	return tbl, nil
}

// finish marks the sweep complete; callers hold c.mu.
func (c *Coordinator) finish() {
	if !c.finished {
		c.finished = true
		close(c.doneCh)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.handle(conn)
	}
}

// expiryLoop reclaims leases whose heartbeats stopped.
func (c *Coordinator) expiryLoop(stop <-chan struct{}) {
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			expired := c.lt.expire(now)
			for _, l := range expired {
				c.m.expired.Inc()
				c.m.reclaimed.Inc()
				c.logf("lease %d (%s) expired: no heartbeat from %s; re-leasing", l.id, c.pointLabel(l.point), l.owner)
			}
			c.mu.Unlock()
		}
	}
}

// handle runs one worker connection: hello handshake, then a frame
// loop until the connection drops or the worker misbehaves.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)

	// The hello must arrive promptly; everything after runs without a
	// read deadline (workers may legitimately be silent for up to a
	// heartbeat interval, and mid-simulation for longer).
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := ReadFrame(br)
	if err != nil || hello.Kind != KindHello {
		return
	}
	conn.SetReadDeadline(time.Time{})

	c.mu.Lock()
	c.connSeq++
	cc := &coordConn{conn: conn, name: hello.Name, id: fmt.Sprintf("%s#%d", hello.Name, c.connSeq)}
	c.conns[cc] = struct{}{}
	c.m.joined.Inc()
	c.m.connected.Set(int64(len(c.conns)))
	done := c.finished
	c.mu.Unlock()
	c.logf("worker %s joined", cc.id)

	if err := cc.send(Frame{
		Kind:        KindWelcome,
		HeartbeatMs: uint32(c.cfg.HeartbeatEvery.Milliseconds()),
		Spec:        c.specJSON,
	}); err != nil {
		c.dropConn(cc)
		return
	}
	if done {
		cc.send(Frame{Kind: KindDone})
	}

	for {
		f, err := ReadFrame(br)
		if err != nil {
			c.dropConn(cc)
			return
		}
		switch f.Kind {
		case KindClaim:
			if !c.handleClaim(cc) {
				c.dropConn(cc)
				return
			}
		case KindHeartbeat:
			c.handleHeartbeat(cc, f)
		case KindResult:
			if !c.handleResult(cc, f) {
				c.dropConn(cc)
				return
			}
		default:
			cc.send(Frame{Kind: KindError, Msg: fmt.Sprintf("unexpected frame kind %d", f.Kind)})
			c.dropConn(cc)
			return
		}
	}
}

// dropConn unregisters a connection and bounces its lease back to
// pending. Idempotent: the frame loop and Serve's shutdown may race.
func (c *Coordinator) dropConn(cc *coordConn) {
	cc.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.conns[cc]; !ok {
		return
	}
	delete(c.conns, cc)
	c.m.connected.Set(int64(len(c.conns)))
	if !c.finished {
		c.m.lost.Inc()
	}
	for _, p := range c.lt.releaseOwner(time.Now(), cc.id) {
		c.m.reclaimed.Inc()
		c.logf("worker %s lost; re-leasing %s", cc.id, c.pointLabel(p))
	}
}

// handleClaim answers a claim with exactly one of lease/wait/done.
// It returns false when the connection must be closed (protocol
// violation).
func (c *Coordinator) handleClaim(cc *coordConn) bool {
	c.mu.Lock()
	outcome, id, point, retry := c.lt.claim(time.Now(), cc.id)
	var reply Frame
	switch outcome {
	case claimGranted:
		c.m.granted.Inc()
		ai, li, rep := c.cfg.Sweep.CellAt(point)
		reply = Frame{Kind: KindLease, LeaseID: id, AI: ai, LI: li, Rep: rep}
		c.logf("lease %d: %s -> %s", id, c.pointLabel(point), cc.id)
	case claimWait:
		ms := retry.Milliseconds()
		if ms <= 0 {
			ms = 1
		}
		reply = Frame{Kind: KindWait, RetryMs: uint32(ms)}
	case claimDone:
		reply = Frame{Kind: KindDone}
	case claimDuplicate:
		c.m.duplicate.Inc()
		c.mu.Unlock()
		c.logf("worker %s claimed while holding a lease; closing", cc.id)
		cc.send(Frame{Kind: KindError, Msg: "claim while holding an active lease"})
		return false
	}
	c.mu.Unlock()
	return cc.send(reply) == nil
}

func (c *Coordinator) handleHeartbeat(cc *coordConn, f Frame) {
	c.mu.Lock()
	if !c.lt.heartbeat(time.Now(), f.LeaseID, cc.id) {
		c.m.stale.Inc()
	}
	c.mu.Unlock()
}

// handleResult verifies and merges one finished cell. Verification
// failures — bad checksum, undecodable JSON, coordinates that
// contradict the lease — are counted, the point is bounced for
// re-lease, and the connection is dropped: a worker that returns a
// tampered result is not trusted with further work. A result for a
// lease that no longer exists (the worker's lease expired and the
// point was re-leased) is dropped as stale without closing the
// connection.
func (c *Coordinator) handleResult(cc *coordConn, f Frame) bool {
	c.mu.Lock()
	l, ok := c.lt.leases[f.LeaseID]
	if !ok || l.owner != cc.id {
		c.m.stale.Inc()
		c.mu.Unlock()
		c.logf("worker %s: stale result for lease %d dropped", cc.id, f.LeaseID)
		return true
	}
	point := l.point
	ai, li, rep := c.cfg.Sweep.CellAt(point)

	reject := func(why string) bool {
		c.m.rejected.Inc()
		c.m.reclaimed.Inc()
		c.lt.fail(time.Now(), f.LeaseID)
		c.mu.Unlock()
		c.logf("worker %s: result for %s rejected (%s); re-leasing", cc.id, c.pointLabel(point), why)
		cc.send(Frame{Kind: KindError, Msg: fmt.Sprintf("result for lease %d rejected: %s", f.LeaseID, why)})
		return false
	}

	if Checksum(f.Blob) != f.Sum {
		return reject("checksum mismatch")
	}
	var pt experiment.Point
	if err := json.Unmarshal(f.Blob, &pt); err != nil {
		return reject("undecodable point")
	}
	if pt.Algorithm != c.tbl.Algos[ai] || pt.Load != c.cfg.Sweep.Loads[li] {
		return reject(fmt.Sprintf("point identifies as %s@%g, lease is for %s", pt.Algorithm, pt.Load, c.pointLabel(point)))
	}

	c.lt.complete(f.LeaseID, cc.id)
	c.place(point, pt)
	c.m.merged.Inc()
	c.merged++
	if err := c.cfg.Sweep.SaveFinishedPoint(ai, li, rep, pt); err != nil {
		// Best-effort, like the local resumable sweep: a failing disk
		// degrades resumability, never the table.
		c.logf("persisting %s: %v", c.pointLabel(point), err)
	}
	c.logf("merged %s from %s (%d/%d)", c.pointLabel(point), cc.id, c.merged+c.preloaded, c.total)
	if c.cfg.Progress != nil {
		elapsed := time.Since(c.start)
		var eta time.Duration
		done, rem := c.merged, c.total-c.preloaded-c.merged
		if done > 0 && rem > 0 {
			eta = elapsed / time.Duration(done) * time.Duration(rem)
		}
		c.cfg.Progress(experiment.Progress{
			Done:    c.merged + c.preloaded,
			Total:   c.total,
			Label:   c.pointLabel(point),
			Elapsed: elapsed,
			ETA:     eta,
		})
	}
	if c.lt.done() {
		c.finish()
	}
	c.mu.Unlock()
	return true
}
