package switchsim

import "voqsim/internal/cell"

// The internals the external test package (switchsim_test) reads: its
// batteries range over internal/roster, which imports this package.

// Tick simulates one slot of r with no warm-up, as Run's loop does.
func (r *Runner) Tick(slot int64) { r.tick(slot, 0) }

// PutPacket hands p back to r's packet pool.
func (r *Runner) PutPacket(p *cell.Packet) { r.pool.Put(p) }

// PutPacket hands p back to l's packet pool.
func (l *LiveRunner) PutPacket(p *cell.Packet) { l.pool.Put(p) }

var (
	SlotBenchRunner = slotBenchRunner
	WarmSlotsFor    = warmSlotsFor
)
