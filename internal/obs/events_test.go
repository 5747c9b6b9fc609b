package obs

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestEventLogRoundTrip: Emit then ReadEvents recovers type, timestamp,
// and fields in order.
func TestEventLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.events")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("day_start", map[string]any{"day": 1, "scenario": "drift"})
	l.Emit("day_done", map[string]any{"day": 1, "wall_s": 2.5})
	l.Emit("note", nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Type != "day_start" || evs[1].Type != "day_done" || evs[2].Type != "note" {
		t.Fatalf("types wrong: %+v", evs)
	}
	if evs[0].Fields["scenario"] != "drift" || evs[0].Fields["day"] != float64(1) {
		t.Fatalf("fields wrong: %+v", evs[0].Fields)
	}
	if evs[0].Time.IsZero() || evs[1].Time.Before(evs[0].Time) {
		t.Fatalf("timestamps wrong: %v then %v", evs[0].Time, evs[1].Time)
	}
	if _, ok := evs[0].Fields["t"]; ok {
		t.Fatal("reserved key t must be lifted out of Fields")
	}
	if _, ok := evs[0].Fields["type"]; ok {
		t.Fatal("reserved key type must be lifted out of Fields")
	}
}

// TestEventLogNilSafe: a nil log is a valid no-op emitter.
func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit("anything", map[string]any{"k": "v"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEventLogAppendAndTornTail: reopening appends; a torn trailing line
// (killed writer) is tolerated, but corruption mid-file fails loudly.
func TestEventLogAppendAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.events")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("a", nil)
	l.Close()
	l, err = OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("b", nil)
	l.Close()

	// Simulate a kill mid-append: a torn final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"c","tru`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	evs, err := ReadEvents(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(evs) != 2 || evs[0].Type != "a" || evs[1].Type != "b" {
		t.Fatalf("append/torn-tail events wrong: %+v", evs)
	}

	// Corruption mid-file (garbage followed by a valid line) is loud.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, []byte("\n{\"type\":\"d\"}\n")...)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEvents(path); err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("mid-file corruption must fail loudly, got %v", err)
	}
}

// TestEventLogResumeAfterTornTail: a sweep killed mid-Emit and then resumed
// must not glue the torn fragment to the next event — reopening truncates
// it, so the log stays readable.
func TestEventLogResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.events")
	torn := "{\"type\":\"a\"}\n{\"type\":\"b\"}\n{\"type\":\"c\",\"tru"
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("d", nil)
	l.Emit("e", nil)
	l.Close()

	evs, err := ReadEvents(path)
	if err != nil {
		t.Fatalf("log resumed after a torn tail is unreadable: %v", err)
	}
	if len(evs) != 4 || evs[1].Type != "b" || evs[2].Type != "d" || evs[3].Type != "e" {
		t.Fatalf("got %+v, want events a b d e", evs)
	}
}

// TestReadEventsMissing: a missing file is an empty log.
func TestReadEventsMissing(t *testing.T) {
	evs, err := ReadEvents(filepath.Join(t.TempDir(), "absent.events"))
	if err != nil || evs != nil {
		t.Fatalf("missing file: got %v, %v", evs, err)
	}
}

// TestEventLogConcurrent: concurrent emitters never interleave lines.
func TestEventLogConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.events")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Emit("tick", map[string]any{"w": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	l.Close()

	evs, err := ReadEvents(path)
	if err != nil {
		t.Fatalf("concurrent emission produced a malformed log: %v", err)
	}
	if len(evs) != writers*perWriter {
		t.Fatalf("got %d events, want %d", len(evs), writers*perWriter)
	}
}
