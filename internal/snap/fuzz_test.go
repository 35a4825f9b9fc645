package snap

import (
	"bytes"
	"testing"
)

// FuzzReader holds the low-level decoder to its safety contract on
// arbitrary input: NewReader/ReadMeta/Restore may reject a blob but
// must never panic, and counts must never drive allocations beyond
// the blob's own size (enforced structurally by Reader.Count; a
// violation here would surface as an OOM-killed fuzz process).
//
// The higher-level FuzzRestore in internal/switchsim drives the same
// decoder through the full component LoadState chain.
func FuzzReader(f *testing.F) {
	const headerLen = len(magic) + 2 // magic, then the u16 version
	f.Add([]byte{})
	f.Add(appendHeader(nil))
	valid := Snapshot(testMeta(), &testState{a: 1, b: 2})
	f.Add(valid)
	// Truncations and single-bit flips of a valid blob.
	f.Add(valid[:len(valid)-3])
	for _, i := range []int{0, 7, 9, len(valid) / 2, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x10
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		if m, err := ReadMeta(blob); err == nil {
			if m.Ports <= 0 {
				t.Fatalf("accepted meta with bad ports: %+v", m)
			}
		}
		var s testState
		if _, err := Restore(blob, testMeta(), &s); err == nil {
			// A blob Restore accepts must round-trip to itself.
			again := Snapshot(testMeta(), &s)
			m, _ := ReadMeta(blob)
			want := Snapshot(m, &s)
			if !bytes.Equal(again[:headerLen], want[:headerLen]) {
				t.Fatal("header not canonical")
			}
		}
	})
}
