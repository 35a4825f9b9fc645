package report

import (
	"bytes"
	"strings"
	"testing"

	"voqsim/internal/obs"
)

// FuzzReadEventsJSONL pins the trace parser's contract on hostile
// input: malformed lines must produce an error, never a panic, and any
// trace that parses must survive a write→read round trip unchanged
// (the voqtrace tools depend on both properties).
func FuzzReadEventsJSONL(f *testing.F) {
	var valid bytes.Buffer
	if err := EventSink(&valid)([]obs.Event{
		{Slot: 0, Type: obs.EvArrival, In: 1, Out: -1, Round: -1, Aux: 2, TS: 0, Packet: 7},
		{Slot: 3, Type: obs.EvGrant, In: 2, Out: 5, Round: 1, Aux: 0, TS: 42, Packet: -1},
		{Slot: 3, Type: obs.EvDeparture, In: 2, Out: 5, Round: -1, Aux: 1, TS: 42, Packet: 9},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{}"))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"slot":"string-not-int"}`))
	f.Add([]byte(`{"slot":1,"type":"arrival"`)) // truncated object
	f.Add([]byte(`{"slot":1}` + "\n" + `]broken[`))
	f.Add([]byte(`{"slot":9007199254740993,"type":255,"in":-2147483648}`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add(bytes.Repeat([]byte("a"), 4096))
	f.Add([]byte(`{"slot":1,"type":1,"in":0,"out":0,"round":0,"aux":0,"ts":0,"packet":0}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEventsJSONL(bytes.NewReader(data))
		if err != nil {
			// The error contract: malformed input is reported with a
			// line number, never swallowed as a zero event.
			if !strings.Contains(err.Error(), "line") {
				t.Fatalf("parse error without line context: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EventSink(&buf)(events); err != nil {
			t.Fatalf("re-encoding parsed events: %v", err)
		}
		again, err := ReadEventsJSONL(&buf)
		if err != nil {
			t.Fatalf("re-parsing re-encoded events: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}
