package tatra

import (
	"voqsim/internal/destset"
	"voqsim/internal/snap"
)

// Checkpoint hooks. Serialized state: each input's FIFO through the
// store's per-input codec (packet plus residual destination set —
// departures shrink it in place), then every board column bottom to
// top. Whether an input's head is placed is derived: it is iff the
// input has a block on the board.

// SaveState appends the switch's complete evolving state as one
// "tatra" section.
func (s *Switch) SaveState(w *snap.Writer) {
	w.Begin("tatra")
	w.Int(s.n)
	for in := 0; in < s.n; in++ {
		s.SaveInput(w, in)
	}
	for out := range s.columns {
		col := &s.columns[out]
		w.Count(col.Len())
		for i := 0; i < col.Len(); i++ {
			w.Int(col.At(i))
		}
	}
	w.End()
}

// LoadState restores state written by SaveState into a fresh switch
// of the same size. It refuses a board no run could have built: a
// block for an input whose head does not owe that output (or that has
// no head), an input twice in one column, or a placed head with an
// owed output that has no block — each would reach Step's panic.
func (s *Switch) LoadState(r *snap.Reader) error {
	if err := r.Section("tatra"); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != s.n {
		r.Failf("snapshot is for a %d-port switch, this one has %d", n, s.n)
	}
	for in := 0; in < s.n; in++ {
		if err := s.LoadInput(r, in, 1); err != nil {
			return err
		}
	}
	// Per input, the columns holding its blocks.
	blocks := make([]*destset.Set, s.n)
	for out := range s.columns {
		for i, k := 0, r.Count(8); i < k; i++ {
			in := r.Int()
			switch {
			case r.Err() != nil:
				return r.Err()
			case in < 0 || in >= s.n || s.Len(in) == 0:
				r.Failf("column %d holds a block for input %d, which is empty or absent", out, in)
			case !s.Front(in).Remaining.Contains(out):
				r.Failf("column %d holds a block for input %d, whose head does not owe it", out, in)
			case blocks[in] != nil && blocks[in].Contains(out):
				r.Failf("column %d holds input %d twice", out, in)
			}
			if r.Err() != nil {
				return r.Err()
			}
			if blocks[in] == nil {
				blocks[in] = destset.New(s.n)
			}
			blocks[in].Add(out)
			s.columns[out].Push(in)
		}
	}
	for in, b := range blocks {
		if b != nil && !b.Equal(s.Front(in).Remaining) {
			r.Failf("input %d is placed without a block for every output its head owes", in)
			return r.Err()
		}
		s.placed[in] = b != nil
	}
	return r.EndSection()
}
