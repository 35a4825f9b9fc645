package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"voqsim/internal/core"
	"voqsim/internal/daemon"
	"voqsim/internal/destset"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The voqd-loopback workload: an in-process daemon, the bench's own
// generator (one socket, one goroutine) and its own receiver (one
// socket, one goroutine). Every frame crosses the host's loopback
// interface, not a link.

// frameGen draws the workload's traffic model and encodes its arrivals
// as data frames. It is a function of the seed alone. The payload's
// first 8 bytes carry the frame's due time; the rest is a pattern the
// receiver recomputes from the delivery frame's own header.
type frameGen struct {
	n       int
	sources []traffic.IntoSource
	dests   *destset.Set
	seqs    []uint64
	bitmap  []byte
	payload []byte
	frame   []byte

	slot int64 // model slot of the cursor
	in   int   // next input to draw at slot

	// The arrival the cursor stands on, drawn by peek and kept until
	// consume, so a leg that ends before sending it leaves it to the
	// next leg and the frame stream has no hole.
	have      bool
	curIn     int
	curSeq    uint64
	curFanout int
}

const dueBytes = 8

func newFrameGen(w workloadSpec, seed uint64) (*frameGen, error) {
	in := w.Inputs
	if in.Traffic == nil {
		return nil, fmt.Errorf("bench: workload %s has no traffic", w.Name)
	}
	if in.PayloadBytes < dueBytes || in.PayloadBytes > daemon.MaxPayload {
		return nil, fmt.Errorf("bench: workload %s payload of %d bytes cannot carry a due time", w.Name, in.PayloadBytes)
	}
	if in.Ports > 64 {
		return nil, fmt.Errorf("bench: workload %s has %d ports; the generator keeps destinations in one word", w.Name, in.Ports)
	}
	pat, err := in.Traffic.pattern(in.Ports)
	if err != nil {
		return nil, err
	}
	g := &frameGen{
		n:       in.Ports,
		dests:   destset.New(in.Ports),
		seqs:    make([]uint64, in.Ports),
		bitmap:  make([]byte, (in.Ports+7)/8),
		payload: make([]byte, in.PayloadBytes),
	}
	for _, src := range traffic.BuildSources(pat, in.Ports, xrand.New(seed).Split("traffic", 0)) {
		is, ok := src.(traffic.IntoSource)
		if !ok {
			return nil, fmt.Errorf("bench: traffic %s has no allocation-free source", pat)
		}
		g.sources = append(g.sources, is)
	}
	return g, nil
}

// peek draws the model's next arrival, unless one is already waiting,
// and returns the model slot it falls in.
func (g *frameGen) peek() int64 {
	for !g.have {
		for g.in < g.n && !g.have {
			in := g.in
			g.in++
			if !g.sources[in].NextInto(g.slot, g.dests) {
				continue
			}
			clear(g.bitmap)
			g.dests.ForEach(func(out int) { g.bitmap[out>>3] |= 1 << (out & 7) })
			g.curIn, g.curSeq, g.curFanout = in, g.seqs[in], g.dests.Count()
			g.seqs[in]++
			g.have = true
		}
		if !g.have {
			g.in = 0
			g.slot++
		}
	}
	return g.slot
}

// consume marks the waiting arrival as sent.
func (g *frameGen) consume() { g.have = false }

// destMask is the current arrival's destination set as one word.
func (g *frameGen) destMask() uint64 { return g.dests.Words()[0] }

// encode builds the current arrival's data frame, stamped with due.
// After the due time the payload is the pattern daemon.VerifyPayload
// checks.
func (g *frameGen) encode(dueNs int64) []byte {
	binary.BigEndian.PutUint64(g.payload, uint64(dueNs))
	fillPattern(g.payload[dueBytes:], g.curIn, g.curSeq)
	g.frame = daemon.AppendData(g.frame[:0], g.curIn, g.curSeq, g.n, g.bitmap, g.payload)
	return g.frame
}

func fillPattern(dst []byte, src int, seq uint64) {
	base := uint64(src) + seq
	for j := range dst {
		dst[j] = byte(base + uint64(j))
	}
}

// sentRec and recvRec are what the generator and the receiver log.
// Each goroutine appends to its own log only; losses and duplicates
// are worked out after both have stopped.
type sentRec struct {
	src  uint8
	seq  uint64
	mask uint64
}

type recvRec struct {
	src, out uint8
	seq      uint32
	latNs    int64 // receive time minus the frame's due time
}

// leg is one measured stretch of traffic.
type leg struct {
	startNs  int64
	received atomic.Int64
	recv     []recvRec
	bad      int64 // unparsable frames or payloads that fail verification

	sent       []sentRec
	sentCopies int64
	lateNs     []float64 // open loop: send time minus due time, per frame
	frames     [][]byte  // traced runs: copies of the first frames sent
}

// voqdSession is a started daemon with the bench's two sockets.
type voqdSession struct {
	w       workloadSpec
	d       *daemon.Daemon
	period  time.Duration
	started time.Time
	recv    *net.UDPConn
	send    *net.UDPConn
	targets []netip.AddrPort
	gen     *frameGen
	// recvLog and sentLog back every leg's logs in turn, so the
	// bench's own memory does not grow with the number of legs.
	recvLog []recvRec
	sentLog []sentRec
}

// startVoqd is one set-up: daemon, sockets, subscription and a short
// closed-loop warm-up burst.
func startVoqd(w workloadSpec, seed uint64, record bool) (*voqdSession, error) {
	in := w.Inputs
	gen, err := newFrameGen(w, seed)
	if err != nil {
		return nil, err
	}
	s := &voqdSession{w: w, gen: gen, period: time.Duration(in.SlotPeriodUs * float64(time.Microsecond))}
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if s.recv, err = net.ListenUDP("udp4", loopback); err != nil {
		return nil, fmt.Errorf("receiver socket: %w", err)
	}
	_ = s.recv.SetReadBuffer(4 << 20) // best effort: the kernel caps it, and a loss shows as a failed op
	if s.send, err = net.ListenUDP("udp4", loopback); err != nil {
		s.recv.Close()
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	_ = s.send.SetWriteBuffer(4 << 20) // best effort, as above
	s.d, err = daemon.New(daemon.Config{
		Ports: in.Ports, Seed: seed, SlotPeriod: s.period,
		MaxInputCells: in.MaxInputCells, IngressBacklog: in.IngressBacklog, EgressBacklog: in.EgressBacklog,
		Record: record,
	})
	if err == nil {
		err = s.d.Subscribe(-1, s.recv.LocalAddr().(*net.UDPAddr))
	}
	if err != nil {
		s.recv.Close()
		s.send.Close()
		return nil, err
	}
	for _, a := range s.d.IngressAddrs() {
		ap := a.AddrPort()
		s.targets = append(s.targets, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
	}
	s.started = time.Now()
	s.d.Start()
	warm, err := s.closedLoop(200*time.Millisecond, 0)
	if err == nil {
		err = warm.verify()
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up burst: %w", err)
	}
	return s, nil
}

func (s *voqdSession) close() error {
	err := s.d.Shutdown()
	s.recv.Close()
	s.send.Close()
	return err
}

// newLeg starts a leg whose receive log has room for copiesPerSec over
// span, so that it does not grow while the leg is timed.
func (s *voqdSession) newLeg(span time.Duration, copiesPerSec float64) *leg {
	if need := int(span.Seconds()*copiesPerSec) + 1024; cap(s.recvLog) < need {
		s.recvLog = make([]recvRec, 0, need)
	}
	return &leg{startNs: nowNs(), recv: s.recvLog[:0], sent: s.sentLog[:0]}
}

// receive is the receiver goroutine of one leg. It ends when the
// socket's read deadline fires, which drain arranges.
func (s *voqdSession) receive(l *leg, done chan<- struct{}) {
	defer close(done)
	buf := make([]byte, 2048)
	want := s.w.Inputs.PayloadBytes
	for {
		n, _, err := s.recv.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		t := nowNs()
		dv, err := daemon.ParseDelivery(buf[:n])
		if err != nil || len(dv.Payload) != want {
			l.bad++
			continue
		}
		due := int64(binary.BigEndian.Uint64(dv.Payload))
		dv.Payload = dv.Payload[dueBytes:]
		if daemon.VerifyPayload(dv) != nil {
			l.bad++
			continue
		}
		l.recv = append(l.recv, recvRec{src: uint8(dv.Src), out: uint8(dv.Out), seq: uint32(dv.Seq), latNs: t - due})
		l.received.Add(1)
	}
}

// drain waits for the copies still in flight, then stops the receiver.
func (s *voqdSession) drain(l *leg, done <-chan struct{}) {
	deadline := time.Now().Add(2 * time.Second)
	for l.received.Load() < l.sentCopies && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.recv.SetReadDeadline(time.Now())
	<-done
	s.recv.SetReadDeadline(time.Time{})
	s.recvLog, s.sentLog = l.recv, l.sent // keep what the leg grew
}

func (s *voqdSession) sendCurrent(l *leg, dueNs int64, keepFrames int) error {
	g := s.gen
	frame := g.encode(dueNs)
	if _, err := s.send.WriteToUDPAddrPort(frame, s.targets[g.curIn]); err != nil {
		return fmt.Errorf("send to input %d: %w", g.curIn, err)
	}
	l.sent = append(l.sent, sentRec{src: uint8(g.curIn), seq: g.curSeq, mask: g.destMask()})
	l.sentCopies += int64(g.curFanout)
	if len(l.frames) < keepFrames {
		l.frames = append(l.frames, append([]byte(nil), frame...))
	}
	g.consume()
	return nil
}

// closedLoop is leg A: the generator keeps at most Window copies
// outstanding (copies sent minus copies received), so the system sets
// its own pace and a drop is a failure, not a policy. A frame's due
// time is the moment it is sent.
func (s *voqdSession) closedLoop(span time.Duration, keepFrames int) (*leg, error) {
	l := s.newLeg(span, 400_000) // well above the goodput this host class has shown
	done := make(chan struct{})
	go s.receive(l, done)
	end := l.startNs + int64(span)
	window := s.w.Inputs.Window
	var sendErr error
	for nowNs() < end {
		s.gen.peek()
		if l.sentCopies-l.received.Load()+int64(s.gen.curFanout) > window {
			// Sleep, not spin: on two CPUs a spinning generator takes
			// the daemon's time. A sleep lasts about a millisecond on
			// this class of host, so Window must hold several
			// milliseconds of traffic or the leg measures the timer.
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if sendErr = s.sendCurrent(l, nowNs(), keepFrames); sendErr != nil {
			break
		}
	}
	s.drain(l, done)
	return l, sendErr
}

// openLoop is leg B: model slot k is due at start + k/rate whatever
// the daemon does, and every copy's latency is timed from when its
// frame was due. lateNs records how late the generator itself ran.
func (s *voqdSession) openLoop(span time.Duration) (*leg, error) {
	rate := s.w.Inputs.ModelSlotRate
	l := s.newLeg(span, 1.25*rate*s.w.Inputs.Traffic.Load*float64(s.gen.n))
	done := make(chan struct{})
	go s.receive(l, done)
	end := l.startNs + int64(span)
	first := s.gen.peek()
	var sendErr error
	for {
		due := l.startNs + int64(float64(s.gen.peek()-first)*1e9/rate)
		if due >= end {
			break
		}
		if ahead := due - nowNs(); ahead > 0 {
			// Sleep, not spin, as in closedLoop. The sleep overshoots;
			// the frames that came due meanwhile go out late, in a
			// burst, and lateNs says how late.
			time.Sleep(time.Duration(ahead))
			continue
		}
		l.lateNs = append(l.lateNs, float64(nowNs()-due))
		if sendErr = s.sendCurrent(l, due, 0); sendErr != nil {
			break
		}
	}
	s.drain(l, done)
	return l, sendErr
}

// verify checks a finished leg copy by copy: every expected copy
// arrived exactly once with a verified payload.
func (l *leg) verify() error {
	if l.bad > 0 {
		return fmt.Errorf("%d frames failed parsing or payload verification", l.bad)
	}
	owed := map[uint8][]uint64{} // per source, destination masks indexed by seq minus the leg's first seq
	first := map[uint8]uint64{}
	for _, s := range l.sent {
		if _, ok := first[s.src]; !ok {
			first[s.src] = s.seq
		}
		owed[s.src] = append(owed[s.src], s.mask)
	}
	var dup int64
	for _, r := range l.recv {
		masks, base := owed[r.src], first[r.src]
		i := uint64(r.seq) - base
		if uint64(r.seq) < base || i >= uint64(len(masks)) || masks[i]&(1<<r.out) == 0 {
			dup++
			continue
		}
		masks[i] &^= 1 << r.out
	}
	var lost int64
	for _, masks := range owed {
		for _, m := range masks {
			lost += int64(bits.OnesCount64(m))
		}
	}
	if dup > 0 || lost > 0 {
		return fmt.Errorf("%d of %d copies lost, %d duplicate or unexpected", lost, l.sentCopies, dup)
	}
	return nil
}

// failedCopies is how many of the leg's expected copies count as
// failed ops when verify reports err.
func (l *leg) failedCopies(err error) int {
	if err == nil {
		return 0
	}
	if missing := l.sentCopies - l.received.Load(); missing > 0 {
		return int(missing)
	}
	return 1
}

// runVoqd runs the daemon workload: leg A closed loop for goodput,
// leg B open loop for latency, each half of the asked seconds.
func runVoqd(w workloadSpec, opt runOptions) (*result, error) {
	res := newResult(w, opt)
	res.notef("loopback, same host: every frame crosses the host's loopback interface, not a link")
	if cpusAvailable() < 2 {
		res.Skipped = append(res.Skipped, fmt.Sprintf(
			"pkts_per_s, lat_p50_us: %d CPU available; generator, daemon and receiver on one CPU measure its scheduler", cpusAvailable()))
		res.op(1, fmt.Errorf("voqd-loopback skipped: fewer than 2 CPUs"))
		res.finish()
		return res, nil
	}

	// Digest of the generated input: the first frames of a fresh
	// generator, which the seed alone decides.
	pin, err := newFrameGen(w, opt.seed)
	if err != nil {
		return nil, err
	}
	d := newDigester()
	for i := 0; i < 4096; i++ {
		pin.peek()
		d.addf("%x|", pin.encode(int64(i)))
		pin.consume()
	}
	res.Digest = d.String()
	var pinErr error
	if opt.seed == w.Seed && res.Digest != w.Digest {
		pinErr = fmt.Errorf("generated frames digest %s differs from the pinned %s", res.Digest, w.Digest)
	}
	res.op(1, pinErr)

	var s *voqdSession
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s, err = startVoqd(w, opt.seed, opt.traced); err != nil {
			return nil, err
		}
		res.setup(time.Since(t0), 0) // a fixed-length burst sets it: not calibrated
	}
	defer s.close()

	half := time.Duration(opt.seconds / 2 * float64(time.Second))
	keep := 0
	if opt.traced {
		keep = 1 << 16
	}

	// Leg A: closed-loop repetitions, each bracketed by the probe.
	cal := newCalibrator()
	repSpan := time.Duration(w.Inputs.ClosedLoopRep * float64(time.Second))
	m0, err := s.d.Metrics()
	if err != nil {
		return nil, err
	}
	aStart := nowNs()
	var goodput, rawGoodput []float64
	var a leg // totals over the repetitions
	var aFrames int
	for len(goodput) < w.MinReps || nowNs()-aStart < int64(half) {
		var l *leg
		var err error
		wall, factor := cal.timed(func() { l, err = s.closedLoop(repSpan, keep-len(a.frames)) })
		if err != nil {
			return nil, err
		}
		verr := l.verify()
		res.op(int(l.sentCopies)-l.failedCopies(verr), nil)
		if verr != nil {
			res.op(l.failedCopies(verr), fmt.Errorf("leg A: %w", verr))
		}
		rate := float64(l.sentCopies) / wall.Seconds()
		goodput = append(goodput, rate*factor)
		rawGoodput = append(rawGoodput, rate)
		a.sentCopies += l.sentCopies
		aFrames += len(l.sent)
		a.frames = append(a.frames, l.frames...)
	}
	m1, err := s.d.Metrics()
	if err != nil {
		return nil, err
	}
	aWall := nowNs() - aStart
	admitted := m1.Daemon.AdmittedCopies - m0.Daemon.AdmittedCopies
	delivered := m1.Daemon.Delivered - m0.Daemon.Delivered
	drops := (m1.Daemon.RingDrops - m0.Daemon.RingDrops) + (m1.Daemon.EgressDrops - m0.Daemon.EgressDrops)
	var aErr error
	if admitted != a.sentCopies || delivered != a.sentCopies || drops != 0 {
		aErr = fmt.Errorf("leg A: sent %d copies, daemon admitted %d and delivered %d, %d ring or egress drops",
			a.sentCopies, admitted, delivered, drops)
	}
	res.op(1, aErr)
	res.Metrics.setCalibrated("pkts_per_s", summarize(goodput), summarize(rawGoodput))
	res.Metrics.set("slots_per_s", float64(m1.Slot-m0.Slot)/(float64(aWall)/1e9), 1)
	res.notef("leg A closed loop: at most %d copies outstanding, %d repetitions of %.2f s, %d frames, %d copies",
		w.Inputs.Window, len(goodput), w.Inputs.ClosedLoopRep, aFrames, a.sentCopies)

	// Leg B, with the slot-lag sampler beside it.
	stopLag := make(chan struct{})
	lagDone := make(chan []float64)
	go func() {
		var lags []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				lagDone <- lags
				return
			case <-tick.C:
				expected := int64(time.Since(s.started) / s.period)
				lags = append(lags, float64(expected-s.d.Slot()))
			}
		}
	}()
	b, err := s.openLoop(half)
	close(stopLag)
	lags := <-lagDone
	if err != nil {
		return nil, err
	}
	m2, err := s.d.Metrics()
	if err != nil {
		return nil, err
	}
	bErr := b.verify()
	res.op(int(b.sentCopies)-b.failedCopies(bErr), nil)
	if bErr != nil {
		res.op(b.failedCopies(bErr), fmt.Errorf("leg B: %w", bErr))
	}
	lats := make([]float64, len(b.recv))
	for i, r := range b.recv {
		lats[i] = float64(r.latNs) / 1e3
	}
	sort.Float64s(lats)
	sort.Float64s(b.lateNs)
	sort.Float64s(lags)
	res.Metrics.set("lat_p50_us", percentile(lats, 50), len(lats))
	res.notef("leg B open loop: %.0f model slots/s, %d frames, %d copies; lat_p50_us over %d samples, generator lateness p99 %.1f us over %d frames",
		w.Inputs.ModelSlotRate, len(b.sent), b.sentCopies, len(lats), percentile(b.lateNs, 99)/1e3, len(b.lateNs))

	if opt.traced {
		m := res.Metrics
		m.set("daemon.lat_p99_us", percentile(lats, 99), len(lats))
		m.set("daemon.lat_max_us", percentile(lats, 100), len(lats))
		m.set("daemon.lat_samples", float64(len(lats)), len(lats))
		m.set("daemon.gen_late_p99_us", percentile(b.lateNs, 99)/1e3, len(b.lateNs))
		m.set("daemon.slot_lag_p99_slots", percentile(lags, 99), len(lags))
		m.set("daemon.ring_drops", float64(m2.Daemon.RingDrops-m0.Daemon.RingDrops), 1)
		m.set("daemon.egress_drops", float64(m2.Daemon.EgressDrops-m0.Daemon.EgressDrops), 1)
		m.set("daemon.backpressure_slots", float64(m2.Daemon.BackpressureSlots-m0.Daemon.BackpressureSlots), 1)

		codecNs, err := codecNsPerFrame(a.frames)
		if err != nil {
			return nil, err
		}
		m.set("daemon.codec_ns_per_frame", codecNs, len(a.frames))
		tr, err := s.d.Transcript()
		if err != nil {
			return nil, err
		}
		stepNs, err := liveStepNsPerSlot(tr, opt.seed)
		res.op(1, err)
		m.set("daemon.live_step_ns_per_slot", stepNs, int(tr.Slots))
		explained := codecNs*float64(aFrames) + stepNs*float64(m1.Slot-m0.Slot)
		m.set("daemon.socket_residual_frac", 1-explained/float64(aWall), 1)
		res.Untraced = append(res.Untraced,
			"daemon ingress rings, slot clock and egress channel: goroutine hand-offs inside the daemon; from outside only their sum shows, as daemon.socket_residual_frac together with the socket calls",
			"the daemon's own switch runs with its metrics observer attached; daemon.live_step_ns_per_slot replays the arrivals without one")
		if err := writeTrace(opt.outDir, traceFile{
			Workload: w.Name, Seed: opt.seed, Env: res.Env, Layers: layerMetrics(m), Untraced: res.Untraced,
		}); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// codecNsPerFrame replays the frame codec over recorded frames: one
// ParseData per frame, and per destination one AppendDelivery and one
// ParseDelivery, which is the codec work one frame costs end to end.
func codecNsPerFrame(frames [][]byte) (float64, error) {
	if len(frames) == 0 {
		return 0, fmt.Errorf("no frames recorded for the codec replay")
	}
	var buf []byte
	var perr error
	t0 := nowNs()
	for _, f := range frames {
		df, err := daemon.ParseData(f)
		if err != nil {
			return 0, fmt.Errorf("codec replay: %w", err)
		}
		df.ForEachDest(func(out int) {
			buf = daemon.AppendDelivery(buf[:0], df.Src, out, df.Seq, 0, 0, false, df.Payload)
			if _, err := daemon.ParseDelivery(buf); err != nil {
				perr = err
			}
		})
	}
	took := nowNs() - t0
	if perr != nil {
		return 0, fmt.Errorf("codec replay: %w", perr)
	}
	return float64(took) / float64(len(frames)), nil
}

// liveStepNsPerSlot replays the daemon's admitted arrivals through a
// fresh LiveRunner — Admit and Step, the switch work the daemon's slot
// loop does — and checks copy conservation on the way.
func liveStepNsPerSlot(tr *traffic.Trace, seed uint64) (float64, error) {
	if tr.Slots == 0 {
		return 0, fmt.Errorf("empty transcript")
	}
	live := switchsim.NewLive(core.NewSwitch(tr.N, &core.FIFOMS{}, xrand.New(seed).Split("switch", 0)))
	next := 0
	t0 := nowNs()
	for slot := int64(0); slot < tr.Slots; slot++ {
		for next < len(tr.Arrivals) && tr.Arrivals[next].Slot == slot {
			e := tr.Arrivals[next]
			next++
			p := live.Borrow()
			p.Dests.Clear()
			for _, out := range e.Dests {
				p.Dests.Add(out)
			}
			if _, err := live.Admit(p, e.Input, slot); err != nil {
				return 0, fmt.Errorf("live replay: %w", err)
			}
		}
		live.Step(slot, nil)
	}
	took := nowNs() - t0
	perSlot := float64(took) / float64(tr.Slots)
	if buffered := live.AdmittedCopies() - live.Delivered(); buffered != live.Switch().(*core.Switch).BufferedAddressCells() {
		return perSlot, fmt.Errorf("live replay: admitted %d copies, delivered %d, but %d address cells buffered",
			live.AdmittedCopies(), live.Delivered(), live.Switch().(*core.Switch).BufferedAddressCells())
	}
	return perSlot, nil
}
