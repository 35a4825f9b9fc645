package daemon

import (
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voqsim/internal/cell"
	"voqsim/internal/experiment"
	"voqsim/internal/obs"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// Config describes one voqd instance. The zero value is not runnable;
// Ports is required, everything else has a default.
type Config struct {
	// Ports is the switch size N: the daemon binds N ingress sockets
	// and fans deliveries out to N output subscriber lists.
	Ports int
	// Algo selects the scheduling algorithm (experiment roster names:
	// fifoms, islip, pim, 2drr, lqfms, eslip, wba, ...). Default
	// "fifoms". Every architecture can checkpoint.
	Algo string
	// Seed drives the arbiter's tie-breaking randomness. A mirrored
	// simulator replay of the daemon's arrival transcript with the
	// same algo and seed reproduces the live delivery stream bit for
	// bit (docs/OPERATIONS.md).
	Seed uint64

	// Ingress is the base UDP listen address "host:port": input i
	// listens on port+i. A port of 0 binds each input to its own
	// ephemeral port; read the result from IngressAddrs.
	Ingress string
	// Admin is the HTTP listen address for /healthz, /metrics,
	// /queues, /subscribe, /unsubscribe and /checkpoint; empty
	// disables the admin server.
	Admin string
	// Pprof additionally mounts Go's /debug/pprof handlers on the
	// admin server, so a live daemon can be profiled over HTTP
	// (go tool pprof http://ADMIN/debug/pprof/profile). Off by
	// default: the profile endpoints expose internals and cost CPU
	// while sampling, so operators opt in per deployment.
	Pprof bool

	// SlotPeriod is the fixed tick of the slot clock: the daemon runs
	// wall-time/SlotPeriod slots, catching up in batches when the OS
	// scheduler is late, so the long-run slot rate is exact. Zero
	// selects the manual clock (tests and examples): slots advance
	// only through Advance.
	SlotPeriod time.Duration

	// MaxInputCells bounds each input port's buffered data cells: an
	// input at the bound admits nothing until a delivery frees space
	// (backpressure into the ingress ring). Default 1024.
	MaxInputCells int
	// IngressBacklog is the per-input decoded-frame ring capacity;
	// when the ring is full newly arriving datagrams are dropped and
	// counted. Default 256.
	IngressBacklog int
	// EgressBacklog is the egress send queue capacity in frames; when
	// the sender falls behind, delivery frames are dropped and
	// counted rather than stalling the slot clock. Default 4096.
	EgressBacklog int
	// SocketBuffer is the kernel socket buffer size requested for
	// every ingress socket and the egress socket. Default 4 MiB.
	SocketBuffer int

	// CheckpointPath, when set, makes the daemon write an atomic
	// crash-recovery snapshot (internal/snap container: live-runner
	// accounting, in-flight payload table, complete switch state)
	// every CheckpointEvery slots and at clean shutdown.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in slots; default
	// 100_000 when CheckpointPath is set.
	CheckpointEvery int64
	// Resume makes New load CheckpointPath at startup when the file
	// exists, continuing the slot clock and packet IDs from the
	// snapshot instead of slot 0.
	Resume bool

	// Record keeps the admitted-arrival transcript in memory
	// (Transcript, and RecordPath at shutdown) in traffic.Trace form,
	// for mirrored simulator validation. Meant for bounded validation
	// sessions: the transcript grows with every admitted packet.
	Record bool
	// RecordPath, when set with Record, writes the transcript as
	// trace JSONL at clean shutdown (voqtrace run can replay it).
	RecordPath string

	// OnDelivery, when set, observes every delivered copy from the
	// slot-loop goroutine, after egress dispatch. It must not block.
	OnDelivery func(cell.Delivery)
}

func (c Config) withDefaults() Config {
	if c.Algo == "" {
		c.Algo = "fifoms"
	}
	if c.Ingress == "" {
		c.Ingress = "127.0.0.1:0"
	}
	if c.MaxInputCells <= 0 {
		c.MaxInputCells = 1024
	}
	if c.IngressBacklog <= 0 {
		c.IngressBacklog = 256
	}
	if c.EgressBacklog <= 0 {
		c.EgressBacklog = 4096
	}
	if c.SocketBuffer <= 0 {
		c.SocketBuffer = 4 << 20
	}
	if c.CheckpointPath != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100_000
	}
	if c.RecordPath != "" {
		c.Record = true
	}
	return c
}

// inFrame is one decoded ingress frame queued for admission. buf holds
// the copied bitmap followed by the copied payload.
type inFrame struct {
	seq uint64
	nb  int // bitmap length within buf
	buf []byte
}

// outFrame is one encoded delivery frame queued for egress.
type outFrame struct {
	out int
	buf []byte
}

// pktMeta is the daemon-side state of an admitted, not yet fully
// delivered packet: what the switch does not carry but egress needs.
type pktMeta struct {
	seq     uint64
	payload []byte
}

// Daemon is a running (or runnable) voqd instance. Create with New,
// start with Start, stop with Shutdown.
type Daemon struct {
	cfg Config
	n   int

	live     *switchsim.LiveRunner
	observer *obs.Observer

	ingress []*net.UDPConn
	rings   []chan inFrame

	egressConn *net.UDPConn
	egressCh   chan outFrame

	subMu sync.RWMutex
	subs  [][]*net.UDPAddr

	// Reader-side counters (atomics: written by ingress goroutines,
	// read anywhere).
	recvFrames []atomic.Int64 // datagrams received, per input
	badFrames  []atomic.Int64 // parse/universe/source rejects, per input
	ringDrops  []atomic.Int64 // decoded frames dropped on a full ring, per input

	// Egress-side counters (atomics: written by the egress goroutine).
	egressSends atomic.Int64 // datagrams written (frames x subscribers)

	// Loop-owned state: touched only by the slot-loop goroutine.
	curSlot       int64
	backpressure  []int64 // slots an input spent blocked at MaxInputCells
	admitErrs     int64
	egressFrames  int64 // delivery frames enqueued for egress
	egressDrops   int64 // delivery frames dropped on a full egress queue
	checkpoints   int64
	inflight      map[cell.PacketID]pktMeta
	transcript    []traffic.TraceEntry
	memberScratch []int
	// finalErr records a deferred failure (periodic or final
	// checkpoint, transcript write) surfaced by Shutdown. Loop-owned
	// until loopDone closes.
	finalErr error

	slotNow   atomic.Int64 // published copy of curSlot for /healthz
	startWall time.Time

	reqCh    chan func()
	stopCh   chan struct{}
	loopDone chan struct{}
	readers  sync.WaitGroup
	egrDone  chan struct{}

	admin *adminServer

	started bool
	closed  bool
	// skipFinish makes the stopping slot loop skip the final
	// checkpoint and transcript write (Kill). Written before stopCh
	// closes; the close ordering publishes it to the loop.
	skipFinish bool
}

// New validates cfg, builds the switch, binds every socket (so
// ephemeral ports are resolved before Start) and, with Resume set,
// restores the latest checkpoint. The daemon does not process
// anything until Start.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("daemon: Ports must be positive, got %d", cfg.Ports)
	}
	if cfg.Ports > MaxFramePorts {
		return nil, fmt.Errorf("daemon: Ports %d exceeds the frame format's %d-port bound", cfg.Ports, MaxFramePorts)
	}
	algo, err := experiment.ByName(cfg.Algo)
	if err != nil {
		return nil, err
	}
	// The seed derivation is pinned to the simulator facade's: a
	// mirrored `voqtrace run -algo A -seed S` replay draws the
	// identical arbiter stream.
	sw := algo.New(cfg.Ports, xrand.New(cfg.Seed).Split("switch", 0))
	d := &Daemon{
		cfg:          cfg,
		n:            cfg.Ports,
		live:         switchsim.NewLive(sw),
		rings:        make([]chan inFrame, cfg.Ports),
		subs:         make([][]*net.UDPAddr, cfg.Ports),
		recvFrames:   make([]atomic.Int64, cfg.Ports),
		badFrames:    make([]atomic.Int64, cfg.Ports),
		ringDrops:    make([]atomic.Int64, cfg.Ports),
		backpressure: make([]int64, cfg.Ports),
		inflight:     make(map[cell.PacketID]pktMeta),
		reqCh:        make(chan func()),
		stopCh:       make(chan struct{}),
		loopDone:     make(chan struct{}),
		egrDone:      make(chan struct{}),
	}
	for i := range d.rings {
		d.rings[i] = make(chan inFrame, cfg.IngressBacklog)
	}
	d.observer = &obs.Observer{Metrics: obs.NewRegistry()}
	d.live.Instrument(d.observer)

	if cfg.Resume {
		if cfg.CheckpointPath == "" {
			return nil, fmt.Errorf("daemon: Resume requires CheckpointPath")
		}
		if err := d.restore(); err != nil {
			return nil, err
		}
	}

	if err := d.bind(); err != nil {
		d.closeSockets()
		return nil, err
	}
	if cfg.Admin != "" {
		srv, err := newAdminServer(d, cfg.Admin)
		if err != nil {
			d.closeSockets()
			return nil, err
		}
		d.admin = srv
	}
	return d, nil
}

// bind opens the ingress sockets and the egress send socket.
func (d *Daemon) bind() error {
	host, portStr, err := net.SplitHostPort(d.cfg.Ingress)
	if err != nil {
		return fmt.Errorf("daemon: ingress address %q: %w", d.cfg.Ingress, err)
	}
	basePort := 0
	if portStr != "0" && portStr != "" {
		fmt.Sscanf(portStr, "%d", &basePort)
		if basePort <= 0 || basePort+d.n-1 > 65535 {
			return fmt.Errorf("daemon: ingress base port %q leaves no room for %d ports", portStr, d.n)
		}
	}
	d.ingress = make([]*net.UDPConn, d.n)
	for i := 0; i < d.n; i++ {
		p := 0
		if basePort != 0 {
			p = basePort + i
		}
		addr, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, fmt.Sprint(p)))
		if err != nil {
			return fmt.Errorf("daemon: resolving ingress %d: %w", i, err)
		}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return fmt.Errorf("daemon: binding ingress %d: %w", i, err)
		}
		// Socket buffer sizing is the first line of the overload
		// policy: bursts ride out in the kernel before the
		// user-space ring has to drop (docs/OPERATIONS.md).
		conn.SetReadBuffer(d.cfg.SocketBuffer)
		d.ingress[i] = conn
	}
	econn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return fmt.Errorf("daemon: binding egress socket: %w", err)
	}
	econn.SetWriteBuffer(d.cfg.SocketBuffer)
	d.egressConn = econn
	d.egressCh = make(chan outFrame, d.cfg.EgressBacklog)
	return nil
}

func (d *Daemon) closeSockets() {
	for _, c := range d.ingress {
		if c != nil {
			c.Close()
		}
	}
	if d.egressConn != nil {
		d.egressConn.Close()
	}
}

// IngressAddrs returns the bound ingress address of every input port.
func (d *Daemon) IngressAddrs() []*net.UDPAddr {
	out := make([]*net.UDPAddr, d.n)
	for i, c := range d.ingress {
		out[i] = c.LocalAddr().(*net.UDPAddr)
	}
	return out
}

// AdminAddr returns the bound admin address, or nil without an admin
// server.
func (d *Daemon) AdminAddr() net.Addr {
	if d.admin == nil {
		return nil
	}
	return d.admin.listener.Addr()
}

// Ports returns the switch size N.
func (d *Daemon) Ports() int { return d.n }

// Slot returns the current slot (the next slot the clock will run).
// Safe from any goroutine.
func (d *Daemon) Slot() int64 { return d.slotNow.Load() }

// Start launches the ingress readers, the egress sender, the slot
// clock and the admin server.
func (d *Daemon) Start() {
	if d.started {
		panic("daemon: Start called twice")
	}
	d.started = true
	d.startWall = time.Now()
	d.slotNow.Store(d.curSlot)
	for i, conn := range d.ingress {
		d.readers.Add(1)
		go d.readLoop(i, conn)
	}
	go d.egressLoop()
	go d.loop()
	if d.admin != nil {
		d.admin.serve()
	}
}

// Shutdown stops the daemon cleanly: ingress sockets close first (no
// new frames), the slot loop writes its final checkpoint and the
// transcript, the egress queue drains, and the admin server stops. It
// is safe to call once, after Start.
func (d *Daemon) Shutdown() error {
	if !d.started || d.closed {
		return fmt.Errorf("daemon: Shutdown without a running daemon")
	}
	d.closed = true
	for _, c := range d.ingress {
		c.Close()
	}
	d.readers.Wait()
	close(d.stopCh)
	<-d.loopDone
	close(d.egressCh)
	<-d.egrDone
	d.egressConn.Close()
	if d.admin != nil {
		d.admin.close()
	}
	return d.finalErr
}

// Kill stops the daemon abruptly: no final checkpoint, no transcript
// write — the in-process equivalent of kill -9 for crash-recovery
// tests. Recovery state on disk is whatever the last checkpoint wrote.
func (d *Daemon) Kill() {
	if !d.started || d.closed {
		return
	}
	d.closed = true
	d.skipFinish = true
	for _, c := range d.ingress {
		c.Close()
	}
	d.readers.Wait()
	close(d.stopCh)
	<-d.loopDone
	close(d.egressCh)
	<-d.egrDone
	d.egressConn.Close()
	if d.admin != nil {
		d.admin.close()
	}
}

// readLoop is the ingress reader of one input port: it decodes and
// validates each datagram and queues it on the input's ring,
// dropping (counted) when the ring is full. Decode errors, frames
// for a different universe and frames whose source field does not
// match the port they arrived on are rejected (counted), never fatal.
func (d *Daemon) readLoop(in int, conn *net.UDPConn) {
	defer d.readers.Done()
	buf := make([]byte, 65536)
	for {
		m, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Shutdown
		}
		d.recvFrames[in].Add(1)
		df, perr := ParseData(buf[:m])
		if perr != nil || df.NPorts != d.n || df.Src != in {
			d.badFrames[in].Add(1)
			continue
		}
		cp := make([]byte, len(df.Bitmap)+len(df.Payload))
		copy(cp, df.Bitmap)
		copy(cp[len(df.Bitmap):], df.Payload)
		f := inFrame{seq: df.Seq, nb: len(df.Bitmap), buf: cp}
		select {
		case d.rings[in] <- f:
		default:
			d.ringDrops[in].Add(1)
		}
	}
}

// loop is the slot clock: a fixed-tick logical clock that catches up
// in bounded batches when the OS wakes it late, so the average slot
// rate equals 1/SlotPeriod exactly. Admin queries and manual Advance
// requests are serviced between slots on the same goroutine, which is
// what makes the whole daemon single-writer: switch state, the obs
// registry and the loop-owned counters need no locks.
func (d *Daemon) loop() {
	defer close(d.loopDone)
	var tickC <-chan time.Time
	if d.cfg.SlotPeriod > 0 {
		gran := d.cfg.SlotPeriod
		if gran < time.Millisecond {
			gran = time.Millisecond
		}
		t := time.NewTicker(gran)
		defer t.Stop()
		tickC = t.C
	}
	epoch := time.Now()
	base := d.curSlot // resumed daemons restart the wall clock at the snapshot slot
	const maxBatch = 8192
	for {
		select {
		case <-d.stopCh:
			if !d.skipFinish {
				d.finish()
			}
			return
		case fn := <-d.reqCh:
			fn()
		case <-tickC:
			target := base + int64(time.Since(epoch)/d.cfg.SlotPeriod)
			for n := 0; d.curSlot < target && n < maxBatch; n++ {
				d.runSlot()
			}
		}
	}
}

// runSlot executes one slot: bounded admission (at most one frame per
// input, only below the per-input occupancy bound), one switch step,
// egress dispatch, and the checkpoint cadence.
func (d *Daemon) runSlot() {
	slot := d.curSlot
	sizes := d.live.Sizes()
	for in := 0; in < d.n; in++ {
		if len(d.rings[in]) == 0 {
			continue
		}
		if sizes[in] >= d.cfg.MaxInputCells {
			// Overload policy: the frame stays in the ring
			// (backpressure); if the ring then fills, the reader
			// drops new datagrams with a counted ring drop. Nothing
			// is ever removed from the switch's queue structure
			// except by delivery, so FIFOMS's invariants are
			// untouched by overload (DESIGN.md §13).
			d.backpressure[in]++
			continue
		}
		select {
		case f := <-d.rings[in]:
			p := d.live.Borrow()
			p.Dests.Clear()
			data := Data{NPorts: d.n, Bitmap: f.buf[:f.nb]}
			data.ForEachDest(func(out int) { p.Dests.Add(out) })
			id, err := d.live.Admit(p, in, slot)
			if err != nil {
				// Unreachable by construction (one admission per
				// input per slot); counted so a bug is visible.
				d.admitErrs++
				continue
			}
			d.inflight[id] = pktMeta{seq: f.seq, payload: f.buf[f.nb:]}
			if d.cfg.Record {
				d.memberScratch = p.Dests.Members(d.memberScratch[:0])
				dests := make([]int, len(d.memberScratch))
				copy(dests, d.memberScratch)
				d.transcript = append(d.transcript, traffic.TraceEntry{
					Slot: slot, Input: in, Dests: dests,
				})
			}
		default:
		}
	}
	d.live.Step(slot, d.dispatch)
	d.curSlot = slot + 1
	d.slotNow.Store(d.curSlot)
	if d.cfg.CheckpointPath != "" && d.cfg.CheckpointEvery > 0 && d.curSlot%d.cfg.CheckpointEvery == 0 {
		if err := d.writeCheckpoint(); err != nil {
			d.finalErr = err // surfaced at Shutdown; the daemon keeps serving
		}
	}
}

// dispatch is the slot loop's delivery callback: it encodes one
// egress frame per delivered copy and queues it for the sender,
// dropping (counted) when the egress queue is full. The packet's
// in-flight entry goes with its Done copy, the last one it sends.
func (d *Daemon) dispatch(dv cell.Delivery) {
	meta, ok := d.inflight[dv.ID]
	if ok {
		buf := AppendDelivery(d.takeBuf(), dv.In, dv.Out, meta.seq, dv.Arrival, dv.Slot, dv.Done, meta.payload)
		select {
		case d.egressCh <- outFrame{out: dv.Out, buf: buf}:
			d.egressFrames++
		default:
			d.egressDrops++
			d.putBuf(buf)
		}
		if dv.Done {
			delete(d.inflight, dv.ID)
		}
	}
	if d.cfg.OnDelivery != nil {
		d.cfg.OnDelivery(dv)
	}
}

// takeBuf / putBuf pool egress frame buffers between the slot loop
// (producer) and the egress sender (consumer).
var bufPool = sync.Pool{New: func() any { return []byte(nil) }}

func (d *Daemon) takeBuf() []byte { return bufPool.Get().([]byte)[:0] }
func (d *Daemon) putBuf(b []byte) { bufPool.Put(b) } //nolint:staticcheck // slice header churn is fine here

// egressLoop fans delivery frames out to every subscriber of the
// frame's output port over one shared send socket.
func (d *Daemon) egressLoop() {
	defer close(d.egrDone)
	for f := range d.egressCh {
		d.subMu.RLock()
		for _, sub := range d.subs[f.out] {
			if _, err := d.egressConn.WriteToUDP(f.buf, sub); err == nil {
				d.egressSends.Add(1)
			}
		}
		d.subMu.RUnlock()
		d.putBuf(f.buf)
	}
}

// Subscribe registers addr to receive every delivery frame of output
// out; out == -1 subscribes the address to every output. Duplicate
// registrations are idempotent.
func (d *Daemon) Subscribe(out int, addr *net.UDPAddr) error {
	if out < -1 || out >= d.n {
		return fmt.Errorf("daemon: subscribe to output %d of %d", out, d.n)
	}
	d.subMu.Lock()
	defer d.subMu.Unlock()
	for o := 0; o < d.n; o++ {
		if out != -1 && o != out {
			continue
		}
		dup := false
		for _, s := range d.subs[o] {
			if s.String() == addr.String() {
				dup = true
				break
			}
		}
		if !dup {
			d.subs[o] = append(d.subs[o], addr)
		}
	}
	return nil
}

// Unsubscribe removes addr from output out (-1: every output).
func (d *Daemon) Unsubscribe(out int, addr *net.UDPAddr) error {
	if out < -1 || out >= d.n {
		return fmt.Errorf("daemon: unsubscribe from output %d of %d", out, d.n)
	}
	d.subMu.Lock()
	defer d.subMu.Unlock()
	for o := 0; o < d.n; o++ {
		if out != -1 && o != out {
			continue
		}
		kept := d.subs[o][:0]
		for _, s := range d.subs[o] {
			if s.String() != addr.String() {
				kept = append(kept, s)
			}
		}
		d.subs[o] = kept
	}
	return nil
}

// inLoop runs fn on the slot-loop goroutine, between slots, and waits
// for it. It fails once the daemon is stopping.
func (d *Daemon) inLoop(fn func()) error {
	done := make(chan struct{})
	select {
	case d.reqCh <- func() { fn(); close(done) }:
	case <-d.loopDone:
		return fmt.Errorf("daemon: stopped")
	case <-time.After(5 * time.Second):
		return fmt.Errorf("daemon: slot loop unresponsive")
	}
	select {
	case <-done:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("daemon: slot loop unresponsive")
	}
}

// Advance runs k slots immediately on the slot-loop goroutine. It is
// how manual-clock daemons (SlotPeriod == 0) make progress; it also
// works alongside a running wall clock, which tests use to force
// deterministic slot boundaries.
func (d *Daemon) Advance(k int) error {
	if k < 0 {
		return fmt.Errorf("daemon: Advance(%d)", k)
	}
	return d.inLoop(func() {
		for i := 0; i < k; i++ {
			d.runSlot()
		}
	})
}

// SetOnDelivery installs (or replaces) the delivery observer on a
// running daemon, synchronized on a slot boundary.
func (d *Daemon) SetOnDelivery(fn func(cell.Delivery)) error {
	return d.inLoop(func() { d.cfg.OnDelivery = fn })
}

// Checkpoint writes a crash-recovery snapshot now (CheckpointPath
// must be configured).
func (d *Daemon) Checkpoint() error {
	if d.cfg.CheckpointPath == "" {
		return fmt.Errorf("daemon: no CheckpointPath configured")
	}
	var werr error
	if err := d.inLoop(func() { werr = d.writeCheckpoint() }); err != nil {
		return err
	}
	return werr
}

// Transcript returns a copy of the admitted-arrival transcript as a
// replayable trace covering every slot run so far. Requires Record.
func (d *Daemon) Transcript() (*traffic.Trace, error) {
	if !d.cfg.Record {
		return nil, fmt.Errorf("daemon: transcript recording is off (Config.Record)")
	}
	var tr *traffic.Trace
	err := d.inLoop(func() {
		tr = &traffic.Trace{N: d.n, Slots: d.curSlot}
		tr.Arrivals = append([]traffic.TraceEntry(nil), d.transcript...)
	})
	return tr, err
}

// meta is the snapshot identity header: a restored daemon must agree
// on algorithm, size, seed and overload bound, because all four
// shape the switch state a blob encodes.
func (d *Daemon) meta(nextSlot int64) snap.Meta {
	return snap.Meta{
		Algorithm: d.cfg.Algo,
		Pattern:   "voqd-live",
		Ports:     d.n,
		Seed:      d.cfg.Seed,
		CellLimit: int64(d.cfg.MaxInputCells),
		NextSlot:  nextSlot,
	}
}

func (d *Daemon) writeCheckpoint() error {
	if err := experiment.WriteFileAtomic(d.cfg.CheckpointPath, snap.Snapshot(d.meta(d.curSlot), d)); err != nil {
		return fmt.Errorf("daemon: checkpoint: %w", err)
	}
	d.checkpoints++
	return nil
}

// restore loads the checkpoint file into the freshly built daemon.
func (d *Daemon) restore() error {
	blob, err := os.ReadFile(d.cfg.CheckpointPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // cold start: nothing to recover
		}
		return fmt.Errorf("daemon: reading checkpoint: %w", err)
	}
	m, err := snap.Restore(blob, d.meta(0), d)
	if err != nil {
		return fmt.Errorf("daemon: restoring %s: %w", d.cfg.CheckpointPath, err)
	}
	d.curSlot = m.NextSlot
	return nil
}

// SaveState implements snap.Stater: the daemon section (loop-owned
// counters and the in-flight payload table, in packet-ID order for a
// deterministic blob), then the live runner and switch.
func (d *Daemon) SaveState(w *snap.Writer) {
	w.Begin("voqd")
	w.I64(d.admitErrs)
	w.I64(d.egressFrames)
	w.I64(d.egressDrops)
	w.I64s(d.backpressure)
	ids := make([]cell.PacketID, 0, len(d.inflight))
	for id := range d.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Count(len(ids))
	for _, id := range ids {
		m := d.inflight[id]
		w.I64(int64(id))
		w.U64(m.seq)
		w.String(string(m.payload))
	}
	w.End()
	d.live.SaveState(w)
}

// LoadState implements snap.Stater.
func (d *Daemon) LoadState(r *snap.Reader) error {
	if err := r.Section("voqd"); err != nil {
		return err
	}
	d.admitErrs = r.I64()
	d.egressFrames = r.I64()
	d.egressDrops = r.I64()
	bp := r.I64s()
	n := r.Count(8 + 8 + 4)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := cell.PacketID(r.I64())
		seq := r.U64()
		payload := []byte(r.String())
		if id <= 0 {
			r.Failf("in-flight packet id %d", id)
			break
		}
		d.inflight[id] = pktMeta{seq: seq, payload: payload}
	}
	if r.Err() == nil {
		if len(bp) != d.n {
			r.Failf("backpressure vector has %d entries, want %d", len(bp), d.n)
		} else {
			copy(d.backpressure, bp)
		}
	}
	if err := r.EndSection(); err != nil {
		return err
	}
	return d.live.LoadState(r)
}

// finish runs on the slot loop as it stops: final checkpoint and
// transcript write.
func (d *Daemon) finish() {
	if d.cfg.CheckpointPath != "" {
		if err := d.writeCheckpoint(); err != nil && d.finalErr == nil {
			d.finalErr = err
		}
	}
	if d.cfg.Record && d.cfg.RecordPath != "" {
		tr := &traffic.Trace{N: d.n, Slots: d.curSlot, Arrivals: d.transcript}
		f, err := os.Create(d.cfg.RecordPath)
		if err == nil {
			err = tr.Write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && d.finalErr == nil {
			d.finalErr = fmt.Errorf("daemon: writing transcript: %w", err)
		}
	}
}
