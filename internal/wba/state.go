package wba

import "voqsim/internal/snap"

// Checkpoint hooks. Serialized state: the tie-break PRNG and each
// input's FIFO through the store's per-input codec (packet plus
// residual destination set — fanout splitting shrinks it in place).
// The occupancy bitset is rebuilt while loading; heads and served are
// per-slot scratch.

// SaveState appends the switch's complete evolving state as one
// "wba" section.
func (s *Switch) SaveState(w *snap.Writer) {
	w.Begin("wba")
	w.Int(s.n)
	snap.WriteRand(w, s.rnd)
	for in := 0; in < s.n; in++ {
		s.SaveInput(w, in)
	}
	w.End()
}

// LoadState restores state written by SaveState into a fresh switch
// of the same size.
func (s *Switch) LoadState(r *snap.Reader) error {
	if err := r.Section("wba"); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != s.n {
		r.Failf("snapshot is for a %d-port switch, this one has %d", n, s.n)
	}
	snap.ReadRand(r, s.rnd)
	for in := 0; in < s.n; in++ {
		if err := s.LoadInput(r, in, 1); err != nil {
			return err
		}
	}
	return r.EndSection()
}
