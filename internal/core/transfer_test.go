package core_test

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/sched/islip"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// transferCounters reads the four transfer counters a switch saves in
// its snapshot: slots stepped, copies carried, distinct cells carried
// and multicast slots. They are saved for nothing else, so the blob is
// where they are read.
func transferCounters(t *testing.T, s *core.Switch) [4]int64 {
	t.Helper()
	w := snap.NewWriter()
	s.SaveState(w)
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("core"); err != nil {
		t.Fatal(err)
	}
	r.Int()                        // n
	r.U8()                         // mode
	snap.ReadRand(r, xrand.New(1)) // arbiter stream
	r.Int()                        // lastRounds
	r.I64()                        // totalRounds
	r.I64()                        // activeSlots
	c := [4]int64{r.I64(), r.I64(), r.I64(), r.I64()}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTransferCounters recounts the transfer counters from the delivery
// stream of random runs: copies are deliveries, cells are distinct
// (slot, input) pairs, and a multicast slot is one in which some input
// sent more than one copy. It also holds each slot's deliveries to
// ascending (input, output) order, the order the golden streams pin.
// FIFOMS sends multicast cells, iSLIP one copy per input, and N = 65
// and 130 span two and three bitmap words.
func TestTransferCounters(t *testing.T) {
	arbiters := map[string]func() core.Arbiter{
		"fifoms": func() core.Arbiter { return &core.FIFOMS{} },
		"islip":  func() core.Arbiter { return islip.New() },
	}
	for _, name := range []string{"fifoms", "islip"} {
		for _, n := range []int{4, 16, 65, 130} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				const slots = 400
				s := core.NewSwitch(n, arbiters[name](), xrand.New(uint64(n)))
				r := xrand.New(uint64(n) + 100)
				var want [4]int64
				sent := make(map[int]int) // copies per input, this slot
				id := cell.PacketID(0)
				for slot := int64(0); slot < slots; slot++ {
					for in := 0; in < n; in++ {
						if !r.Bool(0.5) {
							continue
						}
						d := destset.New(n)
						d.RandomBernoulli(r, 3.0/float64(n))
						if d.Empty() {
							continue
						}
						id++
						s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
					}
					clear(sent)
					prev := -1 // in*n+out of the slot's previous delivery
					s.Step(slot, func(d cell.Delivery) {
						at := d.In*n + d.Out
						if at <= prev {
							t.Fatalf("slot %d: delivery (%d,%d) after (%d,%d)", slot, d.In, d.Out, prev/n, prev%n)
						}
						prev = at
						sent[d.In]++
					})
					want[0]++
					multicast := false
					for _, copies := range sent {
						want[1] += int64(copies)
						want[2]++
						multicast = multicast || copies > 1
					}
					if multicast {
						want[3]++
					}
				}
				if name == "fifoms" && want[3] == 0 {
					t.Fatal("no multicast slot: the run does not exercise the counter")
				}
				if got := transferCounters(t, s); got != want {
					t.Fatalf("counters (slots, copies, cells, multicast slots) = %v, the delivery stream says %v", got, want)
				}
			})
		}
	}
}
