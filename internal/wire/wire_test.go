package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fields is one value of every kind a Reader decodes.
type fields struct {
	u8     uint8
	u16    uint16
	u32    uint32
	u64    uint64
	i64    int64
	nonNeg int64
	int    int
	f64    float64
	bool   bool
	sized  []byte
}

var want = fields{
	u8: 0xA5, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 0x0123456789ABCDEF,
	i64: -42, nonNeg: 1 << 62, int: -7, f64: math.Pi, bool: true, sized: []byte("xyz"),
}

// layout encodes want behind a header whose version takes size bytes,
// in the given byte order: the valid input every test starts from.
func layout(order binary.AppendByteOrder, size int) []byte {
	b := []byte("WR")
	if size == 2 {
		b = order.AppendUint16(b, 3)
	} else {
		b = append(b, 3)
	}
	b = append(b, want.u8)
	b = order.AppendUint16(b, want.u16)
	b = order.AppendUint32(b, want.u32)
	b = order.AppendUint64(b, want.u64)
	b = order.AppendUint64(b, uint64(want.i64))
	b = order.AppendUint64(b, uint64(want.nonNeg))
	b = order.AppendUint64(b, uint64(want.int))
	b = order.AppendUint64(b, math.Float64bits(want.f64))
	b = append(b, 1)
	b = order.AppendUint16(b, uint16(len(want.sized)))
	return append(b, want.sized...)
}

// read decodes layout's fields straight through, as a decoder does.
func read(r *Reader, size int) fields {
	r.Header("WR", size, 3)
	return fields{
		u8: r.U8(), u16: r.U16(), u32: r.U32(), u64: r.U64(),
		i64: r.I64(), nonNeg: r.NonNeg(), int: r.Int(), f64: r.F64(), bool: r.Bool(),
		sized: r.Sized(int(r.U16()), 0, 8),
	}
}

// orders runs fn for both byte orders, each with the header version
// size its format uses: one byte in the frames, two in snapshots.
func orders(t *testing.T, fn func(t *testing.T, in []byte, open func([]byte) Reader, size int)) {
	t.Run("big", func(t *testing.T) { fn(t, layout(binary.BigEndian, 1), NewBigEndian, 1) })
	t.Run("little", func(t *testing.T) { fn(t, layout(binary.LittleEndian, 2), NewLittleEndian, 2) })
}

func TestRoundTrip(t *testing.T) {
	orders(t, func(t *testing.T, in []byte, open func([]byte) Reader, size int) {
		r := open(in)
		if got := read(&r, size); !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %+v, want %+v", got, want)
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShortReadSticks truncates a valid input at every length: the
// decode must fail, every later read return a zero value, and Err (and
// Done) keep returning the first error value.
func TestShortReadSticks(t *testing.T) {
	orders(t, func(t *testing.T, in []byte, open func([]byte) Reader, size int) {
		for n := 0; n < len(in); n++ {
			r := open(in[:n])
			read(&r, size)
			first := r.Err()
			if first == nil || !strings.Contains(first.Error(), "remain") {
				t.Fatalf("prefix %d: err %v, want a short read", n, first)
			}
			if got := read(&r, size); !reflect.DeepEqual(got, fields{}) {
				t.Fatalf("prefix %d: reads after the failure returned %+v", n, got)
			}
			if r.Bytes(0) != nil || r.Remaining() != 0 {
				t.Fatalf("prefix %d: a failed reader still hands out bytes", n)
			}
			r.Limit(0)
			r.Lift()
			r.Failf("a later failure")
			if r.Err() != first || r.Done() != first {
				t.Fatalf("prefix %d: first error %v replaced by %v", n, first, r.Err())
			}
		}
	})
	r := NewBigEndian([]byte{'V', 'Q', 1, 1, 0xFF})
	r.Bytes(4)
	r.U16()
	if got := r.Err().Error(); got != "offset 4: need 2 bytes, 1 remain" {
		t.Errorf("short read message %q", got)
	}
}

// TestDeclaredLengthBoundedFirst: a length the input declares is
// checked against its bounds, then against the bytes present, before
// anything is taken — 64 MiB declared over 10 bytes costs nothing.
func TestDeclaredLengthBoundedFirst(t *testing.T) {
	in := append(binary.BigEndian.AppendUint32(nil, 64<<20), make([]byte, 6)...)
	decode := func() (Reader, []byte) {
		r := NewBigEndian(in)
		return r, r.Sized(int(r.U32()), 0, 64<<20)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, b := decode(); b != nil {
			t.Fatal("took 64 MiB from 10 bytes")
		}
	})
	if allocs != 0 {
		t.Errorf("a refused declared length allocates %.1f times, want 0", allocs)
	}
	if r, _ := decode(); r.Err() == nil {
		t.Error("64 MiB declared over 10 bytes accepted")
	}
	for _, c := range []struct{ n, lo, hi int }{{7, 0, 6}, {0, 1, 6}, {-1, 0, 6}} {
		r := NewBigEndian(in)
		if b := r.Sized(c.n, c.lo, c.hi); b != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "outside") {
			t.Errorf("length %d in [%d, %d]: took %d bytes, err %v", c.n, c.lo, c.hi, len(b), r.Err())
		}
	}
}

func TestDoneRefusesTrailingBytes(t *testing.T) {
	orders(t, func(t *testing.T, in []byte, open func([]byte) Reader, size int) {
		r := open(append(in, 0))
		read(&r, size)
		if err := r.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
			t.Errorf("Done = %v, want a trailing-bytes error", err)
		}
	})
}

// TestLimitBoundsLikeASection: while a limit is set, reads stop at it
// even where the input goes on; lifting it lets reads run to the end;
// a limit beyond the input fails.
func TestLimitBoundsLikeASection(t *testing.T) {
	in := []byte{1, 2, 3, 4, 5, 6, 7}
	r := NewBigEndian(in)
	r.Limit(4)
	if got := r.U32(); got != 0x01020304 || r.Remaining() != 0 {
		t.Fatalf("U32 in the limit = %#x, %d remaining", got, r.Remaining())
	}
	r.Lift()
	if r.Remaining() != 3 {
		t.Fatalf("after Lift %d remaining, want 3", r.Remaining())
	}
	r.Limit(2)
	if got := r.U16(); got != 0x0506 {
		t.Fatalf("U16 in the limit = %#x", got)
	}
	r.Lift()
	if got := r.U8(); got != 7 || r.Done() != nil {
		t.Fatalf("U8 after the limit = %d, Done %v", got, r.Done())
	}

	r = NewBigEndian(in)
	r.Limit(2)
	if got := r.U32(); got != 0 || r.Err() == nil {
		t.Errorf("a read across the limit returned %#x, err %v", got, r.Err())
	}
	for _, n := range []int{8, -1} {
		r = NewBigEndian(in)
		r.Limit(n)
		r.Lift()
		if got := r.U8(); got != 0 || r.Err() == nil {
			t.Errorf("Limit(%d) over 7 bytes: read %d, err %v", n, got, r.Err())
		}
	}
}

// TestMirroredBytesDecodeAlike: the two byte orders read mirrored
// bytes as one value.
func TestMirroredBytesDecodeAlike(t *testing.T) {
	b := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	mirror := func(n int) []byte {
		m := make([]byte, n)
		for i := range m {
			m[i] = b[n-1-i]
		}
		return m
	}
	be, le := NewBigEndian(b[:2]), NewLittleEndian(mirror(2))
	if x, y := be.U16(), le.U16(); x != y || x != 0x0123 {
		t.Errorf("U16 %#x vs %#x", x, y)
	}
	be, le = NewBigEndian(b[:4]), NewLittleEndian(mirror(4))
	if x, y := be.U32(), le.U32(); x != y || x != 0x01234567 {
		t.Errorf("U32 %#x vs %#x", x, y)
	}
	be, le = NewBigEndian(b), NewLittleEndian(mirror(8))
	if x, y := be.U64(), le.U64(); x != y || x != 0x0123456789ABCDEF {
		t.Errorf("U64 %#x vs %#x", x, y)
	}
}

// TestHeaderAndFieldRejects covers the value checks: magic, version,
// bool bytes and non-negative integers.
func TestHeaderAndFieldRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"magic", []byte("XR\x03"), func(r *Reader) { r.Header("WR", 1, 3) }, `bad magic "XR"`},
		{"version", []byte("WR\x04"), func(r *Reader) { r.Header("WR", 1, 3) }, "version 4, this build reads only 3"},
		{"wide version", []byte("WR\x00\x04"), func(r *Reader) { r.Header("WR", 2, 3) }, "version 4, this build reads only 3"},
		{"bool", []byte{2}, func(r *Reader) { r.Bool() }, "bool byte 2"},
		{"non-negative", []byte{0x80, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.NonNeg() }, "outside [0, "},
	} {
		r := NewBigEndian(c.in)
		c.read(&r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
}
