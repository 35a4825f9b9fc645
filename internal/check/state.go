package check

import (
	"voqsim/internal/cell"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
)

// Checkpoint integration. The checker's shadow model is normally built
// by observing every Arrive, which assumes it wraps an *empty* switch.
// Restoring a snapshot breaks that assumption: the switch comes back
// mid-run with buffered packets the checker never saw, and invariants
// I3/I4/I6 would fire immediately. Priming reads the restored buffer
// content through the switch's ForEachCopy walk (a fabric's walks its
// nodes and links) and seeds the shadow model as if the checker had
// watched those packets arrive — after which all eight invariants hold
// for the rest of the run exactly as in an unbroken checked run.
//
// Two paths reach it:
//
//   - Wrap detects a non-empty switch (restored before wrapping) and
//     primes on the spot;
//   - LoadState (the checker forwards snapshot hooks to the wrapped
//     switch, so a checked runner can itself be restored) primes after
//     the inner switch has loaded.

// SaveState forwards to the wrapped switch, so a checked switch is
// snapshotted exactly like the bare one.
func (c *Checker) SaveState(w *snap.Writer) { c.base.SaveState(w) }

// LoadState forwards to the wrapped switch, then primes the shadow
// model from the restored buffer content. The checker must be fresh
// (wrapped around an empty switch, no slots stepped).
func (c *Checker) LoadState(r *snap.Reader) error {
	if err := c.base.LoadState(r); err != nil {
		return err
	}
	c.prime()
	return nil
}

// ForEachCopy forwards to the wrapped switch.
func (c *Checker) ForEachCopy(fn func(in, out int, id cell.PacketID, arrival int64)) {
	c.base.ForEachCopy(fn)
}

// prime seeds the shadow model from the wrapped switch's current
// buffer content. It is a no-op for an empty switch.
func (c *Checker) prime() {
	c.base.ForEachCopy(func(in, out int, id cell.PacketID, arrival int64) {
		st := c.pkts[id]
		if st == nil {
			st = &pktState{input: in, arrival: arrival, remaining: destset.New(c.n)}
			c.pkts[id] = st
			c.offeredPackets++
			c.resident++
			c.perInResident[in]++
			if c.prof.wba != nil {
				c.inq[in].Push(id)
			}
		}
		st.remaining.Add(out)
		c.offeredCopies++
		c.outstanding++
		c.perInOutstanding[in]++
		if c.prof.core != nil {
			c.voq[in*c.n+out].Push(shadowCell{id: id, ts: arrival})
		}
	})
	if f := c.prof.fab; f != nil {
		st := f.FabricStats()
		c.fabDelivered0 = st.DeliveredCopies
		c.fabDropped0 = st.DroppedCopies
	}
}
