// Command voqload drives a running voqd to a chosen offered load and
// measures what came back: the saturation-curve instrument for the
// live daemon (EXPERIMENTS.md "Saturating the live daemon").
//
// It replays the simulator's traffic models (internal/traffic) over
// real UDP sockets — one data frame per model arrival — and, when an
// admin address is given, also subscribes a receiver to every output
// and reports delivered copies and per-copy slot delays alongside the
// send-side rates.
//
// Usage:
//
//	voqload [flags]
//	    -targets a0,a1,...   voqd ingress addresses, one per input, in
//	                         port order (copy from the voqd READY line)
//	    -admin host:port     voqd admin address; enables the delivery
//	                         receiver and the delivery report
//	    -traffic bernoulli   bernoulli|uniform|burst|mixed|hotspot|diagonal
//	    -load 0.8 -b 0.2 -maxfanout 8 -eon 16 -mcfrac 0.5 -skew 4
//	                         model parameters (as cmd/voqsim)
//	    -slots 100000        model slots to generate
//	    -slot-rate 0         pacing in model slots/second (0: unpaced);
//	                         match the daemon's 1/slot-period to offer
//	                         load without forcing ingress drops
//	    -payload 64          payload bytes per frame
//	    -seed 1              model seed
//	    -drain 2s            after sending, wait this long for
//	                         deliveries to quiesce
//
// The report is one line per fact, "key: value", ending with a READY
// line-style summary:
//
//	RESULT sent=... copies=... send_pps=... recv=... completed=... mean_delay=... drops=...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"voqsim/internal/daemon"
	"voqsim/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "voqload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		targets  = flag.String("targets", "", "comma-separated voqd ingress addresses, one per input")
		admin    = flag.String("admin", "", "voqd admin address (enables the delivery receiver)")
		spec     = traffic.RegisterFlags(flag.CommandLine)
		load     = flag.Float64("load", 0.8, "target effective load")
		slots    = flag.Int64("slots", 100_000, "model slots to generate")
		slotRate = flag.Float64("slot-rate", 0, "pacing in model slots per second (0: unpaced)")
		payload  = flag.Int("payload", 64, "payload bytes per frame")
		seed     = flag.Uint64("seed", 1, "traffic model seed")
		drain    = flag.Duration("drain", 2*time.Second, "post-send wait for deliveries to quiesce")
	)
	flag.Parse()

	if *targets == "" {
		return fmt.Errorf("-targets is required (copy the ingress list from the voqd READY line)")
	}
	addrs, err := parseTargets(*targets)
	if err != nil {
		return err
	}
	n := len(addrs)

	pat, err := spec.AtLoad(*load, n)
	if err != nil {
		return err
	}

	var recv *daemon.Receiver
	if *admin != "" {
		recv, err = daemon.NewReceiver(n, nil)
		if err != nil {
			return err
		}
		defer recv.Close()
		if err := subscribe(*admin, "subscribe", recv.Addr()); err != nil {
			return err
		}
		defer subscribe(*admin, "unsubscribe", recv.Addr())
	}

	rep, err := daemon.RunLoad(daemon.LoadConfig{
		Targets:  addrs,
		Pattern:  pat,
		Seed:     *seed,
		Slots:    *slots,
		SlotRate: *slotRate,
		Payload:  *payload,
	})
	if err != nil {
		return err
	}
	fmt.Printf("inputs:        %d\n", n)
	fmt.Printf("model:         %s load=%.3f\n", spec.Family, *load)
	fmt.Printf("frames sent:   %d (%d copies addressed)\n", rep.FramesSent, rep.CopiesExpected)
	fmt.Printf("send rate:     %.0f frames/s over %d slots (%.0f slots/s)\n", rep.FrameRate, rep.Slots, rep.SlotRate)

	var rs daemon.ReceiverStats
	var drops int64 = -1
	if recv != nil {
		quiesce(recv, *drain)
		rs = recv.Stats()
		fmt.Printf("received:      %d copies, %d completed packets, %d bad frames\n", rs.Frames, rs.Completed, rs.Bad)
		if rs.Frames > 0 {
			fmt.Printf("copy delay:    mean %.2f slots, max %d slots\n", rs.MeanCopyDelay, rs.MaxCopyDelay)
		}
		if d, err := fetchDrops(*admin); err == nil {
			drops = d
			fmt.Printf("daemon drops:  %d (ingress ring + egress queue)\n", d)
		}
	}
	fmt.Printf("RESULT sent=%d copies=%d send_pps=%.0f recv=%d completed=%d mean_delay=%.2f drops=%d\n",
		rep.FramesSent, rep.CopiesExpected, rep.FrameRate, rs.Frames, rs.Completed, rs.MeanCopyDelay, drops)
	return nil
}

func parseTargets(s string) ([]*net.UDPAddr, error) {
	parts := strings.Split(s, ",")
	addrs := make([]*net.UDPAddr, len(parts))
	for i, p := range parts {
		a, err := net.ResolveUDPAddr("udp", strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("target %d %q: %w", i, p, err)
		}
		addrs[i] = a
	}
	return addrs, nil
}

func subscribe(admin, verb string, addr *net.UDPAddr) error {
	u := fmt.Sprintf("http://%s/%s?out=all&addr=%s", admin, verb, url.QueryEscape(addr.String()))
	resp, err := http.Post(u, "", nil)
	if err != nil {
		return fmt.Errorf("%s: %w", verb, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: admin returned %s", verb, resp.Status)
	}
	return nil
}

// quiesce waits until the receiver's frame count stops moving (or the
// timeout passes): UDP gives no end-of-stream, so "no new copies for a
// few polls" is the drain criterion.
func quiesce(r *daemon.Receiver, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	last, still := int64(-1), 0
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur := r.Stats().Frames
		if cur == last {
			still++
			if still >= 3 {
				return
			}
		} else {
			still = 0
		}
		last = cur
	}
}

// fetchDrops reads the daemon's drop counters from /metrics.
func fetchDrops(admin string) (int64, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", admin))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m daemon.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, err
	}
	return m.Daemon.RingDrops + m.Daemon.EgressDrops, nil
}
