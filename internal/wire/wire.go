// Package wire is the one decoder every byte from outside the program
// passes through: voqd datagrams (internal/daemon), dsweep frames
// (internal/dsweep) and snapshot blobs (internal/snap). A Reader takes
// fixed-width fields, length-prefixed fields and format headers from a
// byte slice in the byte order chosen at construction, and holds four
// guarantees on any input (DESIGN.md §10, "Hostile input"):
//
//   - every read is checked against the bytes present, and a declared
//     length is checked against its bounds before any byte is taken, so
//     hostile input can neither panic a decoder nor size an allocation;
//   - the first error sticks: every later read returns a zero value and
//     Err keeps returning that first error, so a decoder reads straight
//     through and checks once;
//   - a limit confines reads to the next n bytes until it is lifted,
//     which is how a snapshot section keeps its reads inside it;
//   - Done refuses trailing bytes, so a truncated or concatenated input
//     is never half-understood.
//
// The reader never allocates on success. A short read only records
// where it happened; Err formats the message.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Reader decodes one input. The zero value reads nothing; construct
// one with NewBigEndian or NewLittleEndian.
type Reader struct {
	buf    []byte
	pos    int
	lim    int // exclusive end of what reads may take; -1 once failed
	little bool
	err    error

	// The first failure, when it was a short read at pos, which no read
	// moves after a failure: formatted by Err.
	need, have int
}

// NewBigEndian returns a reader over b whose integers are big-endian
// (the voqd and dsweep frames).
func NewBigEndian(b []byte) Reader { return Reader{buf: b, lim: len(b)} }

// NewLittleEndian returns a reader over b whose integers are
// little-endian (snapshot blobs).
func NewLittleEndian(b []byte) Reader { return Reader{buf: b, lim: len(b), little: true} }

// Err returns the first error, or nil. Every call after a failure
// returns the same error value.
func (r *Reader) Err() error {
	if r.err == nil && r.lim < 0 {
		r.err = fmt.Errorf("offset %d: need %d bytes, %d remain", r.pos, r.need, r.have)
	}
	return r.err
}

// Failf records a failure found by the caller — a field outside its
// range, a relation between fields that cannot hold — unless an
// earlier one is already recorded. Later reads return zero values.
func (r *Reader) Failf(format string, args ...any) {
	if r.lim >= 0 {
		r.err, r.lim = fmt.Errorf(format, args...), -1
	}
}

// Remaining returns the number of bytes reads may still take: up to the
// limit while one is set, to the end of the input otherwise, and 0 once
// the reader has failed.
func (r *Reader) Remaining() int { return max(r.lim-r.pos, 0) }

// Bytes takes the next n bytes, or returns nil and records a short
// read if fewer remain. The slice aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > r.lim-r.pos {
		r.short(n)
		return nil
	}
	b := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// short records a read of n bytes that did not fit, unless the reader
// has already failed.
func (r *Reader) short(n int) {
	if r.lim >= 0 {
		r.need, r.have, r.lim = n, r.lim-r.pos, -1
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a two-byte unsigned integer.
func (r *Reader) U16() uint16 {
	if r.lim-r.pos < 2 {
		r.short(2)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	if !r.little {
		v = bits.ReverseBytes16(v)
	}
	return v
}

// U32 reads a four-byte unsigned integer.
func (r *Reader) U32() uint32 {
	if r.lim-r.pos < 4 {
		r.short(4)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	if !r.little {
		v = bits.ReverseBytes32(v)
	}
	return v
}

// U64 reads an eight-byte unsigned integer.
func (r *Reader) U64() uint64 {
	if r.lim-r.pos < 8 {
		r.short(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	if !r.little {
		v = bits.ReverseBytes64(v)
	}
	return v
}

// I64 reads an eight-byte two's-complement integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// NonNeg reads an eight-byte integer that must be a non-negative
// int64, such as a slot number.
func (r *Reader) NonNeg() int64 { return r.within(r.I64(), 0, math.MaxInt64) }

// Int reads an eight-byte two's-complement integer that must fit an
// int (it always does on 64-bit builds).
func (r *Reader) Int() int { return int(r.within(r.I64(), math.MinInt, math.MaxInt)) }

// within returns v if it lies in [lo, hi], and otherwise records a
// failure and returns 0.
func (r *Reader) within(v, lo, hi int64) int64 {
	if v < lo || v > hi {
		r.Failf("value %d outside [%d, %d]", v, lo, hi)
		return 0
	}
	return v
}

// F64 reads an IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("bool byte %d not 0 or 1", v)
	}
	return v == 1
}

// Sized takes a field whose length n was declared by the input. The
// length must lie in [lo, hi], which is checked before the bytes
// present are.
func (r *Reader) Sized(n, lo, hi int) []byte {
	return r.Bytes(int(r.within(int64(n), int64(lo), int64(hi))))
}

// Header reads a format header: the bytes of magic, then a version of
// size bytes (1 or 2) that must equal version.
func (r *Reader) Header(magic string, size int, version uint16) {
	if got := r.Bytes(len(magic)); got != nil && string(got) != magic {
		r.Failf("bad magic %q", got)
	}
	var v uint16
	if size == 2 {
		v = r.U16()
	} else {
		v = uint16(r.U8())
	}
	if v != version {
		r.Failf("version %d, this build reads only %d", v, version)
	}
}

// Limit confines reads to the next n bytes until Lift, failing if
// fewer than n remain.
func (r *Reader) Limit(n int) {
	if n < 0 || n > r.lim-r.pos {
		r.short(n)
		return
	}
	r.lim = r.pos + n
}

// Lift removes the limit: reads may again take up to the end of the
// input.
func (r *Reader) Lift() {
	if r.lim >= 0 {
		r.lim = len(r.buf)
	}
}

// Done returns the first error, or an error if any input is left
// unread.
func (r *Reader) Done() error {
	if r.lim >= 0 && r.pos != len(r.buf) {
		r.Failf("%d trailing bytes at offset %d", len(r.buf)-r.pos, r.pos)
	}
	return r.Err()
}
