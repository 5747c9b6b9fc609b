package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"puffer/internal/wire"
)

// An EventLog is an append-only structured run-progress stream: one JSON
// object per line, each carrying a wall-clock timestamp ("t"), an event
// type ("type"), and the emitter's fields. It is the progress channel for
// long runs — day ETAs from the runner, per-cell lifecycle from the sweep
// executor — and, like every obs output, strictly wall-side: nothing ever
// reads an event back into a computation.
//
// A nil *EventLog is a valid no-op emitter, so engine code holds one
// unconditionally and callers opt in by supplying it. Emit is safe for
// concurrent use and never fails the run: write errors are counted
// (obs_event_errors_total) and dropped.
type EventLog struct {
	mu sync.Mutex
	f  *os.File
}

// OpenEventLog opens (creating directories and the file as needed) an
// event log for appending, first truncating a torn trailing line left by a
// kill mid-Emit so the next event starts on its own line.
func OpenEventLog(path string) (*EventLog, error) {
	f, err := wire.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening event log: %w", err)
	}
	return &EventLog{f: f}, nil
}

var eventErrors = Default.Counter("obs_event_errors_total")

// Emit appends one event. The reserved keys "t" (RFC3339Nano UTC wall
// clock) and "type" are set by Emit; fields must not use them. Each event
// is one line committed in a single write, so concurrent emitters never
// interleave and a killed process leaves at most one torn tail line.
func (l *EventLog) Emit(typ string, fields map[string]any) {
	if l == nil {
		return
	}
	obj := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		obj[k] = v
	}
	obj["t"] = time.Now().UTC().Format(time.RFC3339Nano)
	obj["type"] = typ
	blob, err := json.Marshal(obj)
	if err != nil {
		eventErrors.Inc()
		return
	}
	blob = append(blob, '\n')
	l.mu.Lock()
	_, err = l.f.Write(blob)
	l.mu.Unlock()
	if err != nil {
		eventErrors.Inc()
	}
}

// Close releases the log file. Nil-safe.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}

// An Event is one decoded event-log line.
type Event struct {
	// Time is the emission wall clock (zero if the line had no valid "t").
	Time time.Time
	// Type is the event type ("day_done", "cell_start", ...; empty if the
	// line had no string "type").
	Type string
	// Fields holds every other key of the line.
	Fields map[string]any
}

// ReadEvents decodes an event log. A missing file is an empty log, not an
// error; a torn trailing line (a writer is live, or was killed mid-append)
// is ignored; a malformed line followed by more lines is corruption and
// fails loudly.
func ReadEvents(path string) ([]Event, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: opening event log: %w", err)
	}
	defer f.Close()

	var out []Event
	err = wire.ScanLines(f, path, func(line []byte) error {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return err
		}
		ev := Event{Fields: obj}
		if t, ok := obj["t"].(string); ok {
			if ts, err := time.Parse(time.RFC3339Nano, t); err == nil {
				ev.Time = ts
			}
		}
		ev.Type, _ = obj["type"].(string)
		// The reserved keys never reach Fields, whatever their value:
		// Emit would overwrite them.
		delete(obj, "t")
		delete(obj, "type")
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return out, nil
}
