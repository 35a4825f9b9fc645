package daemon

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"voqsim/internal/destset"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// This file is the client half of the daemon: the voqload load
// generator (RunLoad) and the delivery receiver (Receiver), usable as
// a library from tests and wrapped by cmd/voqload.

// LoadConfig drives one RunLoad session: replay a traffic model over
// real sockets against a running voqd.
type LoadConfig struct {
	// Targets are the daemon's ingress addresses, one per input port
	// (Daemon.IngressAddrs, or parsed from the voqd READY line).
	Targets []*net.UDPAddr
	// Pattern is the traffic model to replay (internal/traffic).
	Pattern traffic.Pattern
	// Seed seeds the per-input model substreams with the simulator's
	// derivation (Split("traffic", 0) then per-port splits), so a
	// voqload run is reproducible.
	Seed uint64
	// Slots is the number of model slots to generate.
	Slots int64
	// SlotRate paces generation in model slots per second; 0 sends
	// unpaced, as fast as the socket accepts. Pace at (or below) the
	// daemon's own slot rate to offer load without forcing ring drops.
	SlotRate float64
	// Payload is the payload size in bytes (0..MaxPayload); the
	// payload content encodes the sending input and sequence number,
	// so receivers can verify frames end to end.
	Payload int
}

// LoadReport is what a RunLoad session achieved.
type LoadReport struct {
	FramesSent     int64         // data frames written
	CopiesExpected int64         // sum of frame fanouts
	Slots          int64         // model slots generated
	Elapsed        time.Duration // wall time of the send loop
	FrameRate      float64       // frames per wall second
	SlotRate       float64       // model slots per wall second
}

// fillPayload writes the verifiable payload of frame (src, seq):
// byte j = low byte of (src + seq + j). Receivers recompute it from
// the delivery frame's own header fields.
func fillPayload(dst []byte, src int, seq uint64) {
	base := uint64(src) + seq
	for j := range dst {
		dst[j] = byte(base + uint64(j))
	}
}

// VerifyPayload checks a delivered payload against fillPayload.
func VerifyPayload(d Delivery) error {
	base := uint64(d.Src) + d.Seq
	for j, b := range d.Payload {
		if b != byte(base+uint64(j)) {
			return fmt.Errorf("daemon: payload byte %d of (src=%d,seq=%d) is %#02x", j, d.Src, d.Seq, b)
		}
	}
	return nil
}

// RunLoad generates cfg.Slots slots of the traffic model and sends
// every arrival as a data frame to its input's ingress socket. It
// returns after the last frame is written; deliveries are observed
// separately (Receiver).
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	n := len(cfg.Targets)
	if n == 0 {
		return LoadReport{}, fmt.Errorf("daemon: RunLoad with no targets")
	}
	if cfg.Slots <= 0 {
		return LoadReport{}, fmt.Errorf("daemon: RunLoad with %d slots", cfg.Slots)
	}
	if cfg.Payload < 0 || cfg.Payload > MaxPayload {
		return LoadReport{}, fmt.Errorf("daemon: RunLoad payload %d outside [0,%d]", cfg.Payload, MaxPayload)
	}
	if cfg.Pattern == nil {
		return LoadReport{}, fmt.Errorf("daemon: RunLoad without a traffic pattern")
	}
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return LoadReport{}, fmt.Errorf("daemon: RunLoad socket: %w", err)
	}
	defer conn.Close()
	conn.SetWriteBuffer(4 << 20)

	sources := traffic.BuildSources(cfg.Pattern, n, xrand.New(cfg.Seed).Split("traffic", 0))
	dests := destset.New(n)
	seqs := make([]uint64, n)
	bitmap := make([]byte, bitmapLen(n))
	payload := make([]byte, cfg.Payload)
	frame := make([]byte, 0, 64+len(bitmap)+cfg.Payload)

	var rep LoadReport
	start := time.Now()
	for slot := int64(0); slot < cfg.Slots; slot++ {
		for in := 0; in < n; in++ {
			if !sources[in].(traffic.IntoSource).NextInto(slot, dests) {
				continue
			}
			for i := range bitmap {
				bitmap[i] = 0
			}
			dests.ForEach(func(out int) { bitmap[out>>3] |= 1 << (out & 7) })
			fillPayload(payload, in, seqs[in])
			frame = AppendData(frame[:0], in, seqs[in], n, bitmap, payload)
			seqs[in]++
			if _, err := conn.WriteToUDP(frame, cfg.Targets[in]); err != nil {
				return rep, fmt.Errorf("daemon: RunLoad send to input %d: %w", in, err)
			}
			rep.FramesSent++
			rep.CopiesExpected += int64(dests.Count())
		}
		rep.Slots = slot + 1
		if cfg.SlotRate > 0 && slot%64 == 63 {
			ahead := time.Duration(float64(slot+1)/cfg.SlotRate*float64(time.Second)) - time.Since(start)
			if ahead > time.Millisecond {
				time.Sleep(ahead)
			}
		}
	}
	rep.Elapsed = time.Since(start)
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.FrameRate = float64(rep.FramesSent) / s
		rep.SlotRate = float64(rep.Slots) / s
	}
	return rep, nil
}

// Receiver binds one UDP socket, parses every delivery frame sent to
// it and keeps counts — the measuring end of a voqload session.
// Subscribe its Addr to the daemon outputs of interest.
type Receiver struct {
	conn *net.UDPConn
	n    int

	frames    atomic.Int64
	bad       atomic.Int64
	completed atomic.Int64
	delaySum  atomic.Int64
	delayMax  atomic.Int64
	perOut    []atomic.Int64

	// onFrame, when non-nil, observes every valid delivery frame from
	// the receiver goroutine.
	onFrame func(Delivery)

	done chan struct{}
}

// ReceiverStats is a snapshot of a Receiver's counters.
type ReceiverStats struct {
	Frames        int64   // valid delivery frames
	Bad           int64   // undecodable or invalid frames
	Completed     int64   // frames with the Last flag
	PerOutput     []int64 // valid frames per output port
	MeanCopyDelay float64 // mean of Slot-Arrival+1 over valid frames
	MaxCopyDelay  int64
}

// NewReceiver binds an ephemeral loopback socket sized for n outputs
// and starts reading; onFrame, when non-nil, is called with every valid
// delivery frame from the receiver goroutine. Close releases it.
func NewReceiver(n int, onFrame func(Delivery)) (*Receiver, error) {
	addr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: receiver socket: %w", err)
	}
	conn.SetReadBuffer(4 << 20)
	r := &Receiver{
		conn:    conn,
		n:       n,
		perOut:  make([]atomic.Int64, n),
		onFrame: onFrame,
		done:    make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

// Addr returns the receiver's bound address for /subscribe.
func (r *Receiver) Addr() *net.UDPAddr { return r.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the receiver.
func (r *Receiver) Close() {
	r.conn.Close()
	<-r.done
}

func (r *Receiver) loop() {
	defer close(r.done)
	buf := make([]byte, 65536)
	for {
		m, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		d, perr := ParseDelivery(buf[:m])
		if perr != nil || d.Out >= r.n || VerifyPayload(d) != nil {
			r.bad.Add(1)
			continue
		}
		r.perOut[d.Out].Add(1)
		if d.Last {
			r.completed.Add(1)
		}
		delay := d.Slot - d.Arrival + 1
		r.delaySum.Add(delay)
		for {
			cur := r.delayMax.Load()
			if delay <= cur || r.delayMax.CompareAndSwap(cur, delay) {
				break
			}
		}
		if r.onFrame != nil {
			r.onFrame(d)
		}
		// Counted last: this add is what WaitFrames synchronises on, so
		// a waiter that sees the frame also sees its callback's writes.
		r.frames.Add(1)
	}
}

// Stats snapshots the counters.
func (r *Receiver) Stats() ReceiverStats {
	s := ReceiverStats{
		Frames:       r.frames.Load(),
		Bad:          r.bad.Load(),
		Completed:    r.completed.Load(),
		PerOutput:    make([]int64, r.n),
		MaxCopyDelay: r.delayMax.Load(),
	}
	for i := range s.PerOutput {
		s.PerOutput[i] = r.perOut[i].Load()
	}
	if s.Frames > 0 {
		s.MeanCopyDelay = float64(r.delaySum.Load()) / float64(s.Frames)
	}
	return s
}

// WaitFrames blocks until the receiver has seen at least want valid
// frames or the timeout passes, returning the count it saw. A frame is
// counted after its onFrame callback returns, so state the callback
// wrote for the counted frames may be read without further locking.
func (r *Receiver) WaitFrames(want int64, timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		got := r.frames.Load()
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
}
