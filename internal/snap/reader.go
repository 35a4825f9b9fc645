package snap

import (
	"fmt"
	"math"

	"voqsim/internal/wire"
)

// Reader decodes a snapshot blob. It is the input-facing half of the
// format: the embedded wire.Reader bounds-checks every read against the
// bytes present (and, inside a section, against the section's end),
// Count validates every element count against the bytes remaining
// before any allocation, and every failure is reported as an error —
// the fuzz target FuzzReader holds the decoder to "no panic, no
// unbounded allocation" on arbitrary blobs.
//
// Errors are sticky: after the first failure every subsequent read
// returns a zero value and Err() reports the original cause, so
// LoadState hooks can decode straight-line and check once. Failf
// records a failure a LoadState hook finds (an out-of-range index, an
// impossible state value); the first failure wins.
type Reader struct {
	wire.Reader
	sec string // name of the open section, for error context
	err error  // the wire error, wrapped once

	nextSlot    int64 // validated Meta.NextSlot, once known
	hasNextSlot bool
}

// NextSlot returns the validated resume slot of the blob being
// decoded, or MaxInt64 when the reader is not driven by Restore (raw
// component round-trips in tests). Components use it to bound
// time-like fields: any slot or arrival stamp in a snapshot must lie
// strictly before the slot the run resumes at.
func (r *Reader) NextSlot() int64 {
	if !r.hasNextSlot {
		return math.MaxInt64
	}
	return r.nextSlot
}

func (r *Reader) setNextSlot(s int64) {
	r.nextSlot = s
	r.hasNextSlot = true
}

// NewReader validates the format header and returns a reader
// positioned at the first section.
func NewReader(blob []byte) (*Reader, error) {
	r := &Reader{Reader: wire.NewLittleEndian(blob)}
	r.Header(magic, 2, Version)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// Err returns the first decoding error, if any, naming the section it
// occurred in.
func (r *Reader) Err() error {
	if r.err == nil {
		if err := r.Reader.Err(); err != nil {
			if r.sec != "" {
				r.err = fmt.Errorf("snap: section %q: %w", r.sec, err)
			} else {
				r.err = fmt.Errorf("snap: %w", err)
			}
		}
	}
	return r.err
}

// Section opens the next section, which must be named name: the
// component layout is positional, so a name mismatch means the blob
// was written by a different layout (or corrupted) and decoding must
// stop before misinterpreting bytes.
func (r *Reader) Section(name string) error {
	switch {
	case r.sec != "":
		r.Failf("section %q opened inside section %q", name, r.sec)
	case r.Remaining() == 0:
		r.Failf("expected section %q, blob ends", name)
	default:
		if got := r.Bytes(int(r.U8())); got != nil && string(got) != name {
			r.Failf("expected section %q, found %q", name, got)
		}
		r.Limit(int(r.U32()))
	}
	if err := r.Err(); err != nil {
		return err
	}
	r.sec = name
	return nil
}

// EndSection closes the open section, requiring that its payload was
// consumed exactly — leftover bytes mean reader and writer disagree
// about the layout.
func (r *Reader) EndSection() error {
	if r.sec == "" {
		r.Failf("EndSection without Section")
	} else if n := r.Remaining(); n > 0 {
		r.Failf("%d unconsumed bytes at section end", n)
	}
	if err := r.Err(); err != nil {
		return err
	}
	r.Lift()
	r.sec = ""
	return nil
}

// Count reads an element count and validates it against the bytes
// remaining in the section, given that each element occupies at least
// elemMin >= 1 bytes. This is the guard that keeps a corrupt count
// from driving a multi-gigabyte make(): callers size allocations by
// the returned value only.
func (r *Reader) Count(elemMin int) int {
	n := int(r.U32())
	if n > r.Remaining()/max(elemMin, 1) {
		r.Failf("count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes(r.Count(1))) }

// I64s reads a length-prefixed []int64. A zero-length slice decodes
// as nil.
func (r *Reader) I64s() []int64 { return readSlice(r, r.I64) }

// Ints reads a length-prefixed []int. A zero-length slice decodes as
// nil.
func (r *Reader) Ints() []int { return readSlice(r, r.Int) }

// readSlice reads a count of eight-byte elements, then the elements.
func readSlice[T any](r *Reader, elem func() T) []T {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	vs := make([]T, n)
	for i := range vs {
		vs[i] = elem()
	}
	return vs
}

// Done verifies the whole blob was consumed: no open section, no
// trailing sections, no sticky error.
func (r *Reader) Done() error {
	if r.sec != "" {
		r.Failf("Done with section %q open", r.sec)
	}
	if r.Reader.Done() != nil {
		return r.Err()
	}
	return nil
}
