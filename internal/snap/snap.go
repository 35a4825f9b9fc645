// Package snap implements deterministic checkpoint/restore for the
// simulator: a versioned, self-describing binary snapshot format plus
// the Snapshot/Restore entry points that serialize the *entire*
// simulation state — queues, arbiter pointers, every xrand stream,
// traffic-source state and statistics accumulators — so that a run
// restored from a snapshot continues bit-identically to one that was
// never interrupted.
//
// # Format
//
// A snapshot blob is a little-endian byte stream:
//
//	blob    := magic[6] | u16 version | section*
//	section := u8 nameLen | name | u32 payloadLen | payload
//
// The first section is always "meta": the identity of the simulation
// the blob was taken from (algorithm, pattern, ports, seed, engine
// config, next slot). Restore validates it against the simulation
// being restored into before touching any component state, so a blob
// can never be applied to the wrong run. The remaining sections are
// written by the components themselves through their SaveState hooks,
// in a fixed order that the matching LoadState hooks consume.
//
// Scalars are fixed-width little-endian; floats are IEEE-754 bit
// patterns (math.Float64bits), so restored statistics are bit-exact,
// not merely close. Strings and counts carry u32 length prefixes that
// the Reader validates against the bytes actually remaining before
// allocating, which is what makes the decoder safe to fuzz: corrupt,
// truncated or adversarial blobs produce errors, never panics or
// pathological allocations.
//
// # Versioning
//
// Version is a single format-wide number. Any change to any
// component's layout bumps Version; old blobs are rejected with a
// clear error rather than migrated (a snapshot is a resume token for
// a long run, not an archival format — see DESIGN.md §10).
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the snapshot format version. Bump on any layout change,
// in any section.
const Version = 1

// magic identifies a snapshot blob. Six bytes so the fixed header is
// eight bytes with the version.
const magic = "voqsnp"

// Stater is implemented by anything whose state can round-trip
// through a snapshot. SaveState appends one or more sections to w;
// LoadState consumes exactly the sections SaveState wrote.
type Stater interface {
	SaveState(w *Writer)
	LoadState(r *Reader) error
}

// Meta identifies the simulation a snapshot belongs to. All fields
// except NextSlot are identity: Restore refuses a blob whose identity
// differs from the simulation being restored into, because component
// state is only meaningful inside the exact run it was taken from.
type Meta struct {
	Algorithm  string  // algorithm name (experiment.Algorithm.Name)
	Pattern    string  // traffic pattern description (Pattern.String())
	Ports      int     // switch size N
	Seed       uint64  // run seed
	Slots      int64   // configured run length
	WarmupFrac float64 // configured warmup fraction (bit-compared)
	CellLimit  int64   // configured UnstableCellLimit
	NextSlot   int64   // first slot the restored run will simulate
}

// equalIdentity reports whether two Metas describe the same run,
// ignoring NextSlot. WarmupFrac is compared by bit pattern so that,
// like the rest of the format, identity is exact.
func equalIdentity(a, b Meta) bool {
	return a.Algorithm == b.Algorithm &&
		a.Pattern == b.Pattern &&
		a.Ports == b.Ports &&
		a.Seed == b.Seed &&
		a.Slots == b.Slots &&
		math.Float64bits(a.WarmupFrac) == math.Float64bits(b.WarmupFrac) &&
		a.CellLimit == b.CellLimit
}

func writeMeta(w *Writer, m Meta) {
	w.Begin("meta")
	w.String(m.Algorithm)
	w.String(m.Pattern)
	w.Int(m.Ports)
	w.U64(m.Seed)
	w.I64(m.Slots)
	w.F64(m.WarmupFrac)
	w.I64(m.CellLimit)
	w.I64(m.NextSlot)
	w.End()
}

func readMeta(r *Reader) (Meta, error) {
	var m Meta
	if err := r.Section("meta"); err != nil {
		return m, err
	}
	m.Algorithm = r.String()
	m.Pattern = r.String()
	m.Ports = r.Int()
	m.Seed = r.U64()
	m.Slots = r.I64()
	m.WarmupFrac = r.F64()
	m.CellLimit = r.I64()
	m.NextSlot = r.I64()
	if err := r.EndSection(); err != nil {
		return m, err
	}
	if m.Ports <= 0 {
		return m, fmt.Errorf("snap: meta has non-positive port count %d", m.Ports)
	}
	if m.NextSlot < 0 || m.Slots < 0 {
		return m, fmt.Errorf("snap: meta has negative slot fields (next %d of %d)", m.NextSlot, m.Slots)
	}
	return m, nil
}

// Snapshot serializes m followed by s into a fresh blob.
func Snapshot(m Meta, s Stater) []byte {
	w := NewWriter()
	writeMeta(w, m)
	s.SaveState(w)
	return w.Bytes()
}

// ReadMeta decodes and validates only the identity header of a blob.
// Resume paths use it to rebuild the matching simulation before
// restoring component state into it.
func ReadMeta(blob []byte) (Meta, error) {
	r, err := NewReader(blob)
	if err != nil {
		return Meta{}, err
	}
	return readMeta(r)
}

// Restore decodes blob into s after checking that the blob's identity
// matches want (NextSlot excepted). It returns the blob's Meta so the
// caller learns the slot to resume from. On any error s may be
// partially loaded and must be discarded.
func Restore(blob []byte, want Meta, s Stater) (Meta, error) {
	r, err := NewReader(blob)
	if err != nil {
		return Meta{}, err
	}
	m, err := readMeta(r)
	if err != nil {
		return Meta{}, err
	}
	if !equalIdentity(m, want) {
		return Meta{}, fmt.Errorf("snap: snapshot identity %+v does not match simulation %+v", m, want)
	}
	r.setNextSlot(m.NextSlot)
	if err := s.LoadState(r); err != nil {
		return Meta{}, err
	}
	if err := r.Done(); err != nil {
		return Meta{}, err
	}
	return m, nil
}

func appendHeader(buf []byte) []byte {
	buf = append(buf, magic...)
	return binary.LittleEndian.AppendUint16(buf, Version)
}
