package snap

import (
	"math"
	"strings"
	"testing"
)

// TestRoundTrip drives every writer method through the matching
// reader method and requires bit-exact values back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Begin("alpha")
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(-1)
	w.F64(math.Pi)
	w.F64(math.Copysign(0, -1)) // signed zero must survive
	w.Bool(true)
	w.Bool(false)
	w.String("hello, κόσμε")
	w.String("")
	w.U64s([]uint64{1, 2, 3})
	w.I64s([]int64{-1, 0, 1})
	w.Ints([]int{9, 8})
	w.U64s(nil)
	w.End()
	w.Begin("beta")
	w.I64(99)
	w.End()
	blob := w.Bytes()

	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 signed zero = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.String(); got != "hello, κόσμε" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := r.U64s(); len(got) != 3 || got[2] != 3 {
		t.Errorf("U64s = %v", got)
	}
	if got := r.I64s(); len(got) != 3 || got[0] != -1 {
		t.Errorf("I64s = %v", got)
	}
	if got := r.Ints(); len(got) != 2 || got[1] != 8 {
		t.Errorf("Ints = %v", got)
	}
	if got := r.U64s(); got != nil {
		t.Errorf("nil U64s = %v", got)
	}
	if err := r.EndSection(); err != nil {
		t.Fatal(err)
	}
	if err := r.Section("beta"); err != nil {
		t.Fatal(err)
	}
	if got := r.I64(); got != 99 {
		t.Errorf("beta I64 = %d", got)
	}
	if err := r.EndSection(); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

type testState struct{ a, b int64 }

func (s *testState) SaveState(w *Writer) {
	w.Begin("test")
	w.I64(s.a)
	w.I64(s.b)
	w.End()
}

func (s *testState) LoadState(r *Reader) error {
	if err := r.Section("test"); err != nil {
		return err
	}
	s.a = r.I64()
	s.b = r.I64()
	return r.EndSection()
}

func testMeta() Meta {
	return Meta{
		Algorithm: "fifoms", Pattern: "bern", Ports: 4, Seed: 42,
		Slots: 1000, WarmupFrac: 0.5, CellLimit: 4000, NextSlot: 500,
	}
}

func TestSnapshotRestore(t *testing.T) {
	src := &testState{a: 1, b: -2}
	m := testMeta()
	blob := Snapshot(m, src)

	got, err := ReadMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("ReadMeta = %+v, want %+v", got, m)
	}

	dst := &testState{}
	rm, err := Restore(blob, m, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rm != m || *dst != *src {
		t.Fatalf("restored %+v meta %+v", *dst, rm)
	}
}

// TestRestoreIdentityMismatch: every identity field must be enforced;
// NextSlot must not be.
func TestRestoreIdentityMismatch(t *testing.T) {
	blob := Snapshot(testMeta(), &testState{a: 1})
	mut := []func(*Meta){
		func(m *Meta) { m.Algorithm = "pim" },
		func(m *Meta) { m.Pattern = "other" },
		func(m *Meta) { m.Ports = 8 },
		func(m *Meta) { m.Seed = 7 },
		func(m *Meta) { m.Slots = 1 },
		func(m *Meta) { m.WarmupFrac = 0.25 },
		func(m *Meta) { m.CellLimit = 1 },
	}
	for i, f := range mut {
		want := testMeta()
		f(&want)
		if _, err := Restore(blob, want, &testState{}); err == nil {
			t.Errorf("mutation %d: Restore accepted mismatched identity", i)
		}
	}
	want := testMeta()
	want.NextSlot = 0 // not identity
	if _, err := Restore(blob, want, &testState{}); err != nil {
		t.Errorf("NextSlot mismatch rejected: %v", err)
	}
}

// snapErr reports whether err is a snapshot decode error.
func snapErr(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "snap: ") }

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(nil); !snapErr(err) {
		t.Errorf("nil blob: %v", err)
	}
	if _, err := NewReader([]byte("not a snapshot blob")); !snapErr(err) {
		t.Errorf("bad magic: %v", err)
	}
	blob := Snapshot(testMeta(), &testState{})
	skew := append([]byte(nil), blob...)
	skew[6] = 0xff // version low byte
	if _, err := NewReader(skew); !snapErr(err) || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew not rejected: %v", err)
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	blob := Snapshot(testMeta(), &testState{a: 5, b: 6})
	for n := 0; n < len(blob); n++ {
		if _, err := Restore(blob[:n], testMeta(), &testState{}); !snapErr(err) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
	// Trailing garbage must be rejected too.
	long := append(append([]byte(nil), blob...), 0xaa)
	if _, err := Restore(long, testMeta(), &testState{}); !snapErr(err) {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.I64(1)
	w.End()
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("s"); err != nil {
		t.Fatal(err)
	}
	_ = r.I64()
	_ = r.I64() // past end: sets the sticky error
	if r.Err() == nil {
		t.Fatal("read past section end not detected")
	}
	first := r.Err()
	_ = r.U64()
	_ = r.String()
	if r.Err() != first {
		t.Error("sticky error was replaced")
	}
}

func TestCountGuardsAllocation(t *testing.T) {
	// Hand-build a section claiming 2^32-1 elements with no payload.
	w := NewWriter()
	w.Begin("s")
	w.U32(0xffffffff)
	w.End()
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("s"); err != nil {
		t.Fatal(err)
	}
	if got := r.U64s(); got != nil {
		t.Errorf("oversized count returned %d elements", len(got))
	}
	if r.Err() == nil {
		t.Error("oversized count not rejected")
	}
}

func TestSectionOrderEnforced(t *testing.T) {
	blob := Snapshot(testMeta(), &testState{})
	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("test"); err == nil {
		t.Error("out-of-order section name accepted")
	}
}

func TestFailf(t *testing.T) {
	blob := Snapshot(testMeta(), &testState{})
	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("meta"); err != nil {
		t.Fatal(err)
	}
	r.Failf("index %d out of range", 9)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "index 9 out of range") {
		t.Errorf("Failf error = %v", r.Err())
	}
}
