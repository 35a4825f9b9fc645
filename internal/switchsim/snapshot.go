package switchsim

import (
	"fmt"

	"voqsim/internal/cell"
	"voqsim/internal/snap"
	"voqsim/internal/traffic"
)

// Checkpoint/restore (DESIGN.md §10). A snapshot captures the whole
// simulation mid-run — engine accounting, statistics, every traffic
// source, and the switch with its arbiter — so that resuming from it
// continues bit-identically to a run that was never interrupted. The
// snapshot path is strictly passive: with checkpointing off, Run
// executes the exact same code it always did.
//
// Not serialized, by design: the SeriesRecorder and observability
// layer (observation must never influence a run, so it is reattached
// rather than restored) and the engine's scratch (sizes).

// CheckpointFunc receives each periodic snapshot during
// RunWithCheckpoints: the blob restores a run that continues at
// nextSlot. A non-nil error aborts the run.
type CheckpointFunc func(nextSlot int64, blob []byte) error

// meta builds the identity header for this run under the given
// algorithm name. The config fields have their defaults applied (New
// did that), so the identity is the *effective* run parameters.
func (r *Runner) meta(name string, nextSlot int64) snap.Meta {
	return snap.Meta{
		Algorithm:  name,
		Pattern:    r.pattern.String(),
		Ports:      r.sw.Ports(),
		Seed:       r.cfg.Seed,
		Slots:      r.cfg.Slots,
		WarmupFrac: r.cfg.WarmupFrac,
		CellLimit:  r.cfg.UnstableCellLimit,
		NextSlot:   nextSlot,
	}
}

// Snapshottable reports why this run cannot be checkpointed, or nil:
// every architecture can, a fast run and a traffic source without
// snapshot hooks cannot.
func (r *Runner) Snapshottable() error {
	if r.cfg.Fast {
		// Fast mode relaxes draw-order identity, which the whole
		// checkpoint contract (resume == straight run, bit for bit)
		// is built on; its sources are not Snapshottable either.
		return fmt.Errorf("switchsim: fast mode cannot be checkpointed or resumed")
	}
	for i, s := range r.sources {
		if _, ok := s.(traffic.Snapshottable); !ok {
			return fmt.Errorf("switchsim: traffic source %d (%T) does not support snapshots", i, s)
		}
	}
	return nil
}

// Snapshot serializes the runner's complete state into a blob that,
// restored into an identically-built runner, resumes at nextSlot.
// Call it only between slots (never from inside a deliver callback).
func (r *Runner) Snapshot(name string, nextSlot int64) ([]byte, error) {
	if err := r.Snapshottable(); err != nil {
		return nil, err
	}
	if nextSlot < 0 || nextSlot > r.cfg.Slots {
		return nil, fmt.Errorf("switchsim: snapshot slot %d outside [0,%d]", nextSlot, r.cfg.Slots)
	}
	return snap.Snapshot(r.meta(name, nextSlot), r), nil
}

// Restore loads a snapshot into this runner, which must be freshly
// built with the same switch architecture, pattern, config and seed
// the snapshot was taken under (the blob's identity header is
// enforced). A following Run continues from the snapshot's slot, and
// its Results cover the whole run, exactly as an uninterrupted Run
// would have reported them.
func (r *Runner) Restore(name string, blob []byte) error {
	if err := r.Snapshottable(); err != nil {
		return err
	}
	if r.sw.BufferedCells() != 0 || r.startSlot != 0 {
		return fmt.Errorf("switchsim: Restore needs a freshly built runner")
	}
	m, err := snap.Restore(blob, r.meta(name, 0), r)
	if err != nil {
		return err
	}
	if m.NextSlot > r.cfg.Slots {
		return fmt.Errorf("switchsim: snapshot resumes at slot %d of a %d-slot run", m.NextSlot, r.cfg.Slots)
	}
	r.startSlot = m.NextSlot
	return nil
}

// SaveState implements snap.Stater: engine accounting and statistics,
// then the traffic sources, then the switch.
func (r *Runner) SaveState(w *snap.Writer) {
	w.Begin("engine")
	w.I64(int64(r.nextID))
	w.I64(r.offeredPackets)
	w.I64(r.offeredCopies)
	w.I64(r.delivered)
	r.tracker.SaveState(w)
	r.occ.SaveState(w)
	r.rounds.SaveState(w)
	r.bytes.SaveState(w)
	r.peak.SaveState(w)
	w.End()
	traffic.SaveSources(w, r.sources)
	r.sw.SaveState(w)
}

// LoadState implements snap.Stater.
func (r *Runner) LoadState(rd *snap.Reader) error {
	if err := rd.Section("engine"); err != nil {
		return err
	}
	r.nextID = cell.PacketID(rd.I64())
	r.offeredPackets = rd.I64()
	r.offeredCopies = rd.I64()
	r.delivered = rd.I64()
	if rd.Err() == nil && (r.nextID < 0 || r.offeredPackets < 0 || r.offeredCopies < 0 || r.delivered < 0) {
		rd.Failf("negative engine counter")
	}
	if err := r.tracker.LoadState(rd); err != nil {
		return err
	}
	if err := r.occ.LoadState(rd); err != nil {
		return err
	}
	if err := r.rounds.LoadState(rd); err != nil {
		return err
	}
	if err := r.bytes.LoadState(rd); err != nil {
		return err
	}
	if err := r.peak.LoadState(rd); err != nil {
		return err
	}
	if err := rd.EndSection(); err != nil {
		return err
	}
	if err := traffic.LoadSources(rd, r.sources); err != nil {
		return err
	}
	return r.sw.LoadState(rd)
}
