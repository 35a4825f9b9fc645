package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"voqsim/internal/obs"
)

// EventSink returns a flush function suitable for obs.Tracer.OnFull
// (and for the final Flush) that appends each batch to w as JSON
// Lines, one event per line. Wrap w in a bufio.Writer and flush it
// yourself if w is unbuffered.
func EventSink(w io.Writer) func([]obs.Event) error {
	enc := json.NewEncoder(w)
	return func(events []obs.Event) error {
		for i := range events {
			if err := enc.Encode(&events[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// ReadEventsJSONL parses a JSON Lines event stream produced by
// EventSink. Blank lines are skipped.
func ReadEventsJSONL(r io.Reader) ([]obs.Event, error) {
	var events []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("report: trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: reading trace: %w", err)
	}
	return events, nil
}

// MetricsSnapshot is one timestamped registry snapshot, as emitted by
// voqsim -metrics-every.
type MetricsSnapshot struct {
	Slot    int64        `json:"slot"`
	Metrics []obs.Metric `json:"metrics"`
}

// WriteMetricsJSONL appends one snapshot to w as a single JSON line.
func WriteMetricsJSONL(w io.Writer, slot int64, metrics []obs.Metric) error {
	return json.NewEncoder(w).Encode(MetricsSnapshot{Slot: slot, Metrics: metrics})
}
