package daemon_test

import (
	"testing"
	"time"

	"voqsim/internal/daemon"
	"voqsim/internal/obs"
	"voqsim/internal/roster"
)

// TestEveryArchitectureCompletesOnTheWire sends twelve fanout-3 frames
// to a 4-port daemon under every roster architecture and drains it.
// Each copy must leave as one egress frame, each packet must complete
// once — on the wire and in the counters — the switch's own departure
// counter on /metrics must agree, and no in-flight entry may outlive
// its packet. The daemon keys both on the switch's Done copy:
// Last would not do, because a copied-mode architecture (one private
// data cell per copy) sets it on every copy and the output-queued ones
// set it on none.
func TestEveryArchitectureCompletesOnTheWire(t *testing.T) {
	const n, packets, fanout = 4, 12, 3
	for _, algo := range roster.For(roster.DaemonCompletion) {
		t.Run(algo.Name, func(t *testing.T) {
			d := startDaemon(t, daemon.Config{
				Ports: n, Algo: algo.Name, Seed: 3,
				IngressBacklog: packets, EgressBacklog: 4096,
			})
			recv, err := daemon.NewReceiver(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			if err := d.Subscribe(-1, recv.Addr()); err != nil {
				t.Fatal(err)
			}
			var frames [][]byte
			var inputs []int
			seqs := make([]uint64, n)
			for i := 0; i < packets; i++ {
				in := i % n
				bm := []byte{byte(0b1111 &^ (1 << uint(in)))} // every output but its own
				frames = append(frames, daemon.AppendData(nil, in, seqs[in], n, bm, nil))
				seqs[in]++
				inputs = append(inputs, in)
			}
			sendAll(t, d, udpSender(t), frames, d.IngressAddrs(), inputs)
			drain(t, d)

			m, err := d.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			c := m.Daemon
			if c.Admitted != packets || c.AdmittedCopies != packets*fanout {
				t.Fatalf("admitted %d packets / %d copies, want %d / %d", c.Admitted, c.AdmittedCopies, packets, packets*fanout)
			}
			if c.EgressFrames != c.Delivered || c.Delivered != c.AdmittedCopies || c.EgressDrops != 0 {
				t.Fatalf("egress frames %d, delivered %d, admitted copies %d, egress drops %d",
					c.EgressFrames, c.Delivered, c.AdmittedCopies, c.EgressDrops)
			}
			if c.Completed != c.Admitted || c.InFlightPackets != 0 {
				t.Fatalf("completed %d of %d packets, %d left in flight", c.Completed, c.Admitted, c.InFlightPackets)
			}
			if got := m.Switch[obs.MetricDepartures]; got != c.Delivered {
				t.Fatalf("switch %s = %d, daemon delivered %d copies", obs.MetricDepartures, got, c.Delivered)
			}
			if got := recv.WaitFrames(c.Delivered, 10*time.Second); got != c.Delivered {
				t.Fatalf("receiver saw %d of %d frames", got, c.Delivered)
			}
			if rs := recv.Stats(); rs.Completed != packets || rs.Bad != 0 {
				t.Fatalf("receiver counted %d completion flags (%d bad frames), want %d", rs.Completed, rs.Bad, packets)
			}
		})
	}
}
