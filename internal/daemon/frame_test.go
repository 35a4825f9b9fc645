package daemon

import (
	"bytes"
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

// TestParseDataRejects pins the validation catalogue: every hostile
// shape errors with the parser's own message, never a panic or a
// silent partial decode.
func TestParseDataRejects(t *testing.T) {
	bm4 := []byte{0b0100}
	good := AppendData(nil, 1, 7, 4, bm4, []byte("xy"))
	mutate := func(fn func(b []byte) []byte) []byte {
		cp := append([]byte(nil), good...)
		return fn(cp)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short-header":   good[:3],
		"bad-magic":      mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad-version":    mutate(func(b []byte) []byte { b[2] = 9; return b }),
		"bad-kind":       mutate(func(b []byte) []byte { b[3] = 7; return b }),
		"delivery-kind":  AppendDelivery(nil, 0, 0, 0, 0, 0, false, nil),
		"truncated-body": good[:6],
		"zero-ports":     mutate(func(b []byte) []byte { b[14], b[15] = 0, 0; return b }),
		"huge-ports":     mutate(func(b []byte) []byte { b[14], b[15] = 0xFF, 0xFF; return b }),
		"src-outside":    mutate(func(b []byte) []byte { b[4], b[5] = 0, 9; return b }),
		"padding-bits":   mutate(func(b []byte) []byte { b[16] |= 0xF0; return b }), // dest ≥ 4 in a 4-port frame
		"empty-dests":    mutate(func(b []byte) []byte { b[16] = 0; return b }),
		"payload-short":  good[:len(good)-1],
		"trailing-junk":  append(append([]byte(nil), good...), 0),
		"declared-long":  mutate(func(b []byte) []byte { b[18] = 0xFF; return b }),
	}
	for name, frame := range cases {
		if _, err := ParseData(frame); err == nil {
			t.Errorf("%s: accepted %x", name, frame)
		}
	}
	// The unmutated frame still parses (the mutations above are
	// meaningful only relative to a valid baseline).
	mustData(t, good)
}

func TestParseDeliveryRejects(t *testing.T) {
	good := AppendDelivery(nil, 1, 2, 3, 10, 12, false, []byte("p"))
	mutate := func(fn func(b []byte) []byte) []byte {
		cp := append([]byte(nil), good...)
		return fn(cp)
	}
	cases := map[string][]byte{
		"short":          good[:10],
		"data-kind":      AppendData(nil, 0, 0, 2, []byte{1}, nil),
		"src=4096":       mutate(func(b []byte) []byte { b[4], b[5] = 0x10, 0; return b }), // one past the largest port index
		"out=4096":       mutate(func(b []byte) []byte { b[6], b[7] = 0x10, 0; return b }),
		"slot-overflow":  mutate(func(b []byte) []byte { b[16] = 0x80; return b }), // arrival top bit
		"slot<arrival":   mutate(func(b []byte) []byte { b[23] = 0xFF; return b }), // arrival 10 -> huge? low byte: arrival=255 > slot=12
		"unknown-flags":  mutate(func(b []byte) []byte { b[32] = 0x82; return b }),
		"trailing-bytes": append(append([]byte(nil), good...), 1, 2),
	}
	for name, frame := range cases {
		if _, err := ParseDelivery(frame); err == nil {
			t.Errorf("%s: accepted %x", name, frame)
		}
	}
	if _, err := ParseDelivery(good); err != nil {
		t.Fatalf("baseline: %v", err)
	}
}

// FuzzParseData feeds hostile datagrams to the ingress parser: any
// input may error but must never panic, and anything it accepts must
// re-encode to the same bytes (the format has no redundancy).
func FuzzParseData(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'V', 'Q', 1, 1})
	f.Add(AppendData(nil, 1, 7, 4, []byte{0b0101}, []byte("xy")))
	f.Add(AppendData(nil, 0, 0, 16, []byte{0xFF, 0x01}, nil))
	f.Add(AppendData(nil, 63, 1<<60, 64, bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{7}, 100)))
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
