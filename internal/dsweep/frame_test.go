package dsweep

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// exampleFrames is one well-formed frame of every kind, reused by the
// round-trip test, the reject mutations and the fuzz seed corpus.
func exampleFrames() []Frame {
	spec := []byte(`{"scenario":{"name":"x"}}`)
	res := []byte(`{"algorithm":"fifoms","load":0.3}`)
	return []Frame{
		{Kind: KindHello, Name: "worker-1"},
		{Kind: KindWelcome, HeartbeatMs: 500, Spec: spec},
		{Kind: KindClaim},
		{Kind: KindLease, LeaseID: 7, AI: 1, LI: 2, Rep: 3},
		{Kind: KindLease, LeaseID: 8, AI: 0, LI: 0},
		{Kind: KindWait, RetryMs: 100},
		{Kind: KindDone},
		{Kind: KindHeartbeat, LeaseID: 7},
		{Kind: KindResult, LeaseID: 7, Sum: Checksum(res), Blob: res},
		{Kind: KindError, Msg: "lease 7 is stale"},
	}
}

func frameEqual(a, b Frame) bool {
	return a.Kind == b.Kind && a.Name == b.Name && a.HeartbeatMs == b.HeartbeatMs &&
		a.LeaseID == b.LeaseID && a.AI == b.AI && a.LI == b.LI && a.Rep == b.Rep && a.Sum == b.Sum &&
		bytes.Equal(a.Blob, b.Blob) && bytes.Equal(a.Spec, b.Spec) &&
		a.RetryMs == b.RetryMs && a.Msg == b.Msg
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range exampleFrames() {
		enc := AppendFrame(nil, f)
		got, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("kind %d: ParseFrame: %v", f.Kind, err)
		}
		if !frameEqual(got, f) {
			t.Errorf("kind %d round-trip\nsent: %+v\ngot:  %+v", f.Kind, f, got)
		}
		re := AppendFrame(nil, got)
		if !bytes.Equal(re, enc) {
			t.Errorf("kind %d re-encode differs\nenc: %x\nre:  %x", f.Kind, enc, re)
		}
	}
}

// TestStreamRoundTrip pins the length-prefixed stream layer: frames
// written back to back decode in order, and a truncated tail errors.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := exampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !frameEqual(got, want) {
			t.Errorf("frame %d differs: %+v vs %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Error("read past the last frame succeeded")
	}

	// Truncated final frame: the reader must error, not hang or panic.
	r = bufio.NewReader(bytes.NewReader(stream[:len(stream)-3]))
	var err error
	for err == nil {
		_, err = ReadFrame(r)
	}
	if !strings.Contains(err.Error(), "frame body") && err.Error() != "EOF" {
		t.Errorf("truncated stream error: %v", err)
	}
}

// TestReadFrameAllocatesAsBytesArrive pins that memory tracks bytes
// received, not bytes declared: a four-byte header claiming the largest
// legal frame, followed by nothing, must error without the coordinator
// having set the declared 64 MiB aside.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	r := bufio.NewReader(bytes.NewReader(hdr[:]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(r)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "frame body") {
		t.Fatalf("header-only stream: err = %v, want a frame body error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("ReadFrame allocated %d bytes for a frame whose body never arrived", grew)
	}
}

// reject is one hostile input of the parser's catalogue.
type reject struct {
	name  string
	frame []byte
}

// frameRejects is ParseFrame's validation catalogue: every hostile
// shape it must refuse. TestParseFrameRejects asserts it and
// FuzzDSweepFrame seeds from it. The mutations are meaningful only
// relative to the baselines rejectBaselines returns.
func frameRejects() []reject {
	hello, lease, result := rejectBaselines()
	mutate := func(src []byte, fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), src...))
	}
	return []reject{
		{"empty", []byte{}},
		{"short-header", hello[:3]},
		{"bad-magic", mutate(hello, func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad-version", mutate(hello, func(b []byte) []byte { b[2] = 9; return b })},
		{"old-version", mutate(hello, func(b []byte) []byte { b[2] = 1; return b })},
		{"v2-version", mutate(hello, func(b []byte) []byte { b[2] = 2; return b })},
		{"unknown-kind", mutate(hello, func(b []byte) []byte { b[3] = 99; return b })},
		{"kind-8", []byte{'D', 'S', Version, 8, 0, 0, 0, 0, 0, 0, 0, 1}}, // the v2 checkpoint
		{"zero-kind", []byte{'D', 'S', Version, 0}},
		{"hello-empty-name", []byte{'D', 'S', Version, KindHello, 0, 0}},
		{"hello-short-name", hello[:len(hello)-1]},
		{"hello-trailing", append(append([]byte(nil), hello...), 'x')},
		{"claim-trailing", []byte{'D', 'S', Version, KindClaim, 0}},
		{"done-trailing", []byte{'D', 'S', Version, KindDone, 0}},
		{"welcome-truncated", []byte{'D', 'S', Version, KindWelcome, 0, 0}},
		{"welcome-zero-hb", AppendFrameRaw(KindWelcome, put32h(nil, 0), put32h(nil, 1), []byte("s"))},
		{"welcome-v2-cadence", AppendFrameRaw(KindWelcome, put64h(put32h(nil, 1), 200), put32h(nil, 1), []byte("s"))},
		{"lease-truncated", lease[:10]},
		{"lease-v1-header", append(append([]byte(nil), lease[:20]...), lease[24:]...)}, // no rep field
		{"lease-huge-coords", mutate(lease, func(b []byte) []byte { b[12] = 0xFF; return b })},
		{"lease-huge-rep", mutate(lease, func(b []byte) []byte { b[20] = 0xFF; return b })},
		{"lease-trailing", AppendFrameRaw(KindLease, lease[4:], put64h(nil, 0), put32h(nil, 0))}, // the v2 sum and blob length
		{"wait-zero", []byte{'D', 'S', Version, KindWait, 0, 0, 0, 0}},
		{"wait-short", []byte{'D', 'S', Version, KindWait, 0, 0}},
		{"heartbeat-short", []byte{'D', 'S', Version, KindHeartbeat, 0, 0}},
		{"heartbeat-trailing", AppendFrameRaw(KindHeartbeat, put64h(nil, 1), put64h(nil, 500))}, // the v2 slot
		{"result-empty", AppendFrameRaw(KindResult, put64h(put64h(nil, 1), 2), put32h(nil, 0), nil)},
		{"result-short", result[:len(result)-1]},
		{"result-trailing", append(append([]byte(nil), result...), 'x')},
		{"error-empty", []byte{'D', 'S', Version, KindError, 0, 0}},
	}
}

// rejectBaselines returns the valid frames frameRejects mutates. The
// lease body is 20 bytes — id 8, ai 4, li 4, rep 4; payload offsets in
// frameRejects add the 4-byte frame header.
func rejectBaselines() (hello, lease, result []byte) {
	return AppendFrame(nil, Frame{Kind: KindHello, Name: "w"}),
		AppendFrame(nil, Frame{Kind: KindLease, LeaseID: 1, AI: 0, LI: 1, Rep: 2}),
		AppendFrame(nil, Frame{Kind: KindResult, LeaseID: 1, Sum: 9, Blob: []byte("r")})
}

// TestParseFrameRejects pins the validation catalogue: every hostile
// shape errors with the parser's own message, never a panic or a
// silent partial decode.
func TestParseFrameRejects(t *testing.T) {
	for _, c := range frameRejects() {
		if _, err := ParseFrame(c.frame); err == nil || !strings.HasPrefix(err.Error(), "dsweep: ") {
			t.Errorf("%s: %x gave %v, want a dsweep: error", c.name, c.frame, err)
		}
	}
	hello, lease, result := rejectBaselines()
	for _, good := range [][]byte{hello, lease, result} {
		if _, err := ParseFrame(good); err != nil {
			t.Fatalf("baseline rejected: %v", err)
		}
	}
}

// AppendFrameRaw hand-builds a frame payload from raw field groups,
// for reject cases AppendFrame's own validation would refuse to emit.
func AppendFrameRaw(kind byte, groups ...[]byte) []byte {
	b := []byte{'D', 'S', Version, kind}
	for _, g := range groups {
		b = append(b, g...)
	}
	return b
}

func put32h(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func put64h(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func TestChecksum(t *testing.T) {
	// FNV-1a 64 reference values.
	if got := Checksum(nil); got != 14695981039346656037 {
		t.Errorf("Checksum(nil) = %d", got)
	}
	if got := Checksum([]byte("a")); got != 12638187200555641996 {
		t.Errorf("Checksum(a) = %d", got)
	}
	if Checksum([]byte("payload")) == Checksum([]byte("payloae")) {
		t.Error("single-byte change did not move the checksum")
	}
}

// FuzzDSweepFrame feeds hostile payloads to the frame parser: any
// input may error but must never panic, and anything accepted must
// re-encode to the same bytes (the format has no redundancy). This is
// the dsweep mirror of the daemon's datagram fuzz, and the CI fuzz leg
// runs it for 10s on every push.
func FuzzDSweepFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'D', 'S', Version, KindClaim})
	for _, fr := range exampleFrames() {
		f.Add(AppendFrame(nil, fr))
	}
	for _, c := range frameRejects() {
		f.Add(c.frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := ParseFrame(b)
		if err != nil {
			return
		}
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, re)
		}
	})
}
