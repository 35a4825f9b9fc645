package daemon

import (
	"bytes"
	"strings"
	"testing"
)

func mustData(t *testing.T, b []byte) Data {
	t.Helper()
	d, err := ParseData(b)
	if err != nil {
		t.Fatalf("ParseData: %v", err)
	}
	return d
}

func TestDataRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		src     int
		seq     uint64
		nports  int
		dests   []int
		payload []byte
	}{
		{"unicast", 0, 0, 4, []int{2}, nil},
		{"broadcast", 3, 17, 4, []int{0, 1, 2, 3}, []byte("hello")},
		{"wide", 100, 1 << 40, 1024, []int{0, 7, 8, 511, 1023}, bytes.Repeat([]byte{0xAB}, MaxPayload)},
		{"odd-universe", 4, 99, 9, []int{8}, []byte{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bm := make([]byte, bitmapLen(tc.nports))
			for _, o := range tc.dests {
				bm[o>>3] |= 1 << (o & 7)
			}
			frame := AppendData(nil, tc.src, tc.seq, tc.nports, bm, tc.payload)
			if k, err := FrameKind(frame); err != nil || k != KindData {
				t.Fatalf("FrameKind = %d, %v", k, err)
			}
			d := mustData(t, frame)
			if d.Src != tc.src || d.Seq != tc.seq || d.NPorts != tc.nports {
				t.Fatalf("header = (%d,%d,%d), want (%d,%d,%d)", d.Src, d.Seq, d.NPorts, tc.src, tc.seq, tc.nports)
			}
			if !bytes.Equal(d.Payload, tc.payload) {
				t.Fatalf("payload mismatch")
			}
			var got []int
			d.ForEachDest(func(o int) { got = append(got, o) })
			if len(got) != len(tc.dests) || d.Fanout() != len(tc.dests) {
				t.Fatalf("dests = %v, want %v", got, tc.dests)
			}
			for i := range got {
				if got[i] != tc.dests[i] {
					t.Fatalf("dests = %v, want %v", got, tc.dests)
				}
			}
		})
	}
}

func TestDeliveryRoundTrip(t *testing.T) {
	frame := AppendDelivery(nil, 2, 5, 42, 100, 107, true, []byte("payload"))
	d, err := ParseDelivery(frame)
	if err != nil {
		t.Fatalf("ParseDelivery: %v", err)
	}
	if d.Src != 2 || d.Out != 5 || d.Seq != 42 || d.Arrival != 100 || d.Slot != 107 || !d.Last {
		t.Fatalf("decoded %+v", d)
	}
	if string(d.Payload) != "payload" {
		t.Fatalf("payload %q", d.Payload)
	}
	if k, _ := FrameKind(frame); k != KindDelivery {
		t.Fatalf("kind %d", k)
	}
}

// reject is one hostile input of a parser's catalogue.
type reject struct {
	name  string
	frame []byte
}

// dataRejects is ParseData's validation catalogue: every hostile shape
// it must refuse. TestParseDataRejects asserts it and FuzzParseData
// seeds from it. The mutations are meaningful only relative to the
// valid baseline goodData.
func dataRejects() []reject {
	good := goodData()
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	return []reject{
		{"empty", []byte{}},
		{"short-header", good[:3]},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad-version", mutate(func(b []byte) []byte { b[2] = 9; return b })},
		{"bad-kind", mutate(func(b []byte) []byte { b[3] = 7; return b })},
		{"zero-kind", mutate(func(b []byte) []byte { b[3] = 0; return b })},
		{"delivery-kind", AppendDelivery(nil, 0, 0, 0, 0, 0, false, nil)},
		{"truncated-body", good[:6]},
		{"zero-ports", mutate(func(b []byte) []byte { b[14], b[15] = 0, 0; return b })},
		{"huge-ports", mutate(func(b []byte) []byte { b[14], b[15] = 0xFF, 0xFF; return b })},
		{"src-outside", mutate(func(b []byte) []byte { b[4], b[5] = 0, 9; return b })},
		{"padding-bits", mutate(func(b []byte) []byte { b[16] |= 0xF0; return b })}, // dest ≥ 4 in a 4-port frame
		{"empty-dests", mutate(func(b []byte) []byte { b[16] = 0; return b })},
		{"payload-short", good[:len(good)-1]},
		{"trailing-junk", append(append([]byte(nil), good...), 0)},
		{"declared-long", mutate(func(b []byte) []byte { b[18] = 0xFF; return b })},
	}
}

func goodData() []byte { return AppendData(nil, 1, 7, 4, []byte{0b0100}, []byte("xy")) }

// deliveryRejects is ParseDelivery's catalogue, shared the same way.
func deliveryRejects() []reject {
	good := goodDelivery()
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	return []reject{
		{"short", good[:10]},
		{"data-kind", AppendData(nil, 0, 0, 2, []byte{1}, nil)},
		{"src=4096", mutate(func(b []byte) []byte { b[4], b[5] = 0x10, 0; return b })}, // one past the largest port index
		{"out=4096", mutate(func(b []byte) []byte { b[6], b[7] = 0x10, 0; return b })},
		{"slot-overflow", mutate(func(b []byte) []byte { b[16] = 0x80; return b })}, // arrival top bit
		{"slot<arrival", mutate(func(b []byte) []byte { b[23] = 0xFF; return b })},  // arrival 255 > slot 12
		{"unknown-flags", mutate(func(b []byte) []byte { b[32] = 0x82; return b })},
		{"payload-declared-long", mutate(func(b []byte) []byte { b[33] = 0xFF; return b })},
		{"trailing-bytes", append(append([]byte(nil), good...), 1, 2)},
	}
}

func goodDelivery() []byte { return AppendDelivery(nil, 1, 2, 3, 10, 12, false, []byte("p")) }

// TestParseDataRejects pins the validation catalogue: every hostile
// shape errors with the parser's own message, never a panic or a
// silent partial decode.
func TestParseDataRejects(t *testing.T) {
	for _, c := range dataRejects() {
		if _, err := ParseData(c.frame); err == nil || !strings.HasPrefix(err.Error(), "daemon: ") {
			t.Errorf("%s: %x gave %v, want a daemon: error", c.name, c.frame, err)
		}
	}
	mustData(t, goodData())
}

func TestParseDeliveryRejects(t *testing.T) {
	for _, c := range deliveryRejects() {
		if _, err := ParseDelivery(c.frame); err == nil || !strings.HasPrefix(err.Error(), "daemon: ") {
			t.Errorf("%s: %x gave %v, want a daemon: error", c.name, c.frame, err)
		}
	}
	if _, err := ParseDelivery(goodDelivery()); err != nil {
		t.Fatalf("baseline: %v", err)
	}
}

// TestFrameCodecZeroAllocs guards voqd's per-datagram path: sniffing,
// parsing both kinds and encoding a delivery into a reused buffer
// allocate nothing.
func TestFrameCodecZeroAllocs(t *testing.T) {
	data, delivery := codecFrames()
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FrameKind(data); err != nil {
			t.Fatal(err)
		}
		d, err := ParseData(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseDelivery(delivery); err != nil {
			t.Fatal(err)
		}
		buf = AppendDelivery(buf[:0], d.Src, 5, d.Seq, 10, 12, true, d.Payload)
	})
	if allocs != 0 {
		t.Errorf("frame codec allocates %.1f times per datagram, want 0", allocs)
	}
}

// codecFrames returns one data frame of a 64-port switch addressed to
// eight outputs and one delivery frame, both with a 64-byte payload:
// the shape of voqd-loopback's traffic.
func codecFrames() (data, delivery []byte) {
	payload := bytes.Repeat([]byte{0x5A}, 64)
	bitmap := []byte{0x81, 0, 0x10, 0x02, 0, 0x40, 0x08, 0x21}
	return AppendData(nil, 3, 1<<33, 64, bitmap, payload),
		AppendDelivery(nil, 3, 5, 1<<33, 1000, 1003, true, payload)
}

// BenchmarkFrameCodec decodes one 64-port data frame and one delivery
// frame per iteration.
func BenchmarkFrameCodec(b *testing.B) {
	data, delivery := codecFrames()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := ParseData(data)
		if err != nil {
			b.Fatal(err)
		}
		dv, err := ParseDelivery(delivery)
		if err != nil {
			b.Fatal(err)
		}
		sinkSeq += d.Seq + dv.Seq
	}
}

var sinkSeq uint64

// FuzzParseData feeds hostile datagrams to the ingress parser: any
// input may error but must never panic, and anything it accepts must
// re-encode to the same bytes (the format has no redundancy).
func FuzzParseData(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'V', 'Q', 1, 1})
	f.Add(AppendData(nil, 1, 7, 4, []byte{0b0101}, []byte("xy")))
	f.Add(AppendData(nil, 0, 0, 16, []byte{0xFF, 0x01}, nil))
	f.Add(AppendData(nil, 63, 1<<60, 64, bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{7}, 100)))
	for _, c := range dataRejects() {
		f.Add(c.frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ParseData(b)
		if err != nil {
			return
		}
		re := AppendData(nil, d.Src, d.Seq, d.NPorts, d.Bitmap, d.Payload)
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, re)
		}
		if d.Fanout() == 0 {
			t.Fatalf("accepted a frame with no destinations: %x", b)
		}
	})
}

// FuzzParseDelivery is the mirror for the egress parser, which
// receivers (voqload, subscribers) run on untrusted datagrams.
func FuzzParseDelivery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'V', 'Q', 1, 2})
	f.Add(AppendDelivery(nil, 1, 2, 3, 10, 12, false, []byte("p")))
	f.Add(AppendDelivery(nil, 0, 4095, 1<<50, 0, 1<<40, true, nil))
	for _, c := range deliveryRejects() {
		f.Add(c.frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ParseDelivery(b)
		if err != nil {
			return
		}
		re := AppendDelivery(nil, d.Src, d.Out, d.Seq, d.Arrival, d.Slot, d.Last, d.Payload)
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, re)
		}
	})
}
