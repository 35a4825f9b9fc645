package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer builds a snapshot blob. Values are appended in the fixed
// order the matching Reader consumes them; the format is positional
// within a section, self-describing at the section level.
//
// Writer methods panic on misuse (unbalanced Begin/End, oversized
// section names). The writer only ever runs over the simulator's own
// in-memory state, so a misuse is a programming error, not an input
// error — all input-facing defence lives in Reader.
type Writer struct {
	buf       []byte
	secStart  int // offset of the pending section's length prefix
	inSection bool
}

// NewWriter returns a writer with the format header already emitted.
func NewWriter() *Writer {
	return &Writer{buf: appendHeader(make([]byte, 0, 1024))}
}

// Begin opens a named section. Sections cannot nest.
func (w *Writer) Begin(name string) {
	if w.inSection {
		panic("snap: Begin inside open section " + name)
	}
	if len(name) == 0 || len(name) > 255 {
		panic(fmt.Sprintf("snap: section name %q must be 1..255 bytes", name))
	}
	w.buf = append(w.buf, byte(len(name)))
	w.buf = append(w.buf, name...)
	w.secStart = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0) // length, patched by End
	w.inSection = true
}

// End closes the open section, patching its length prefix.
func (w *Writer) End() {
	if !w.inSection {
		panic("snap: End without Begin")
	}
	payload := len(w.buf) - w.secStart - 4
	binary.LittleEndian.PutUint32(w.buf[w.secStart:], uint32(payload))
	w.inSection = false
}

// Bytes returns the finished blob. It panics if a section is still
// open.
func (w *Writer) Bytes() []byte {
	if w.inSection {
		panic("snap: Bytes with open section")
	}
	return w.buf
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends the IEEE-754 bit pattern of v, so the value round-trips
// bit-exactly (including signed zero and NaN payloads).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends v as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Count appends a non-negative element count. It panics on negative
// counts: the simulator never has them, and silently wrapping one
// into a huge u32 would corrupt the blob.
func (w *Writer) Count(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("snap: count %d outside u32", n))
	}
	w.U32(uint32(n))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

// I64s appends a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.Count(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
}

// Ints appends a length-prefixed []int (as int64s).
func (w *Writer) Ints(vs []int) {
	w.Count(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}
