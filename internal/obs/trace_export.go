package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
)

// Trace export. Chrome trace-event JSON ("X" complete events with
// microsecond timestamps) loads directly in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Two processes' exports merge by combining the
// traceEvents arrays — pids keep the halves apart, trace ids join them.

// chromeEvent is one Chrome trace-event entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeDoc is the exported document shape.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// procPid derives a stable small pid from a process label, so traces
// exported by different processes combine without track collisions.
func procPid(proc string) int {
	h := fnv.New32a()
	h.Write([]byte(proc))
	return int(h.Sum32()%99990) + 1
}

// WriteChromeTrace renders spans as Chrome trace-event JSON. proc labels
// the process track (e.g. "puffer-serve"); each distinct trace id becomes
// one named thread track, so Perfetto shows every traced decision as its
// own row with its stage spans nested by time containment.
func WriteChromeTrace(w io.Writer, proc string, spans []Span) error {
	pid := procPid(proc)
	doc := chromeDoc{DisplayTimeUnit: "ms"}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": proc},
	})

	// Assign small tids per trace in first-appearance order (Chrome tids
	// must stay well under 2^53; trace ids are full 64-bit hashes).
	tids := map[uint64]int{}
	order := []uint64{}
	for _, s := range spans {
		if _, ok := tids[s.Trace]; !ok {
			tids[s.Trace] = len(order) + 1
			order = append(order, s.Trace)
		}
	}
	for _, tr := range order {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tids[tr],
			Args: map[string]any{"name": "trace " + TraceIDString(tr)},
		})
	}

	// Chrome nests "X" events on a tid by time containment; ties are broken
	// by emission order, so parents must precede children. Sort by (trace,
	// start, -dur) to guarantee it.
	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Trace != b.Trace {
			return tids[a.Trace] < tids[b.Trace]
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Dur > b.Dur
	})
	for _, s := range sorted {
		args := map[string]any{
			"trace":  TraceIDString(s.Trace),
			"span":   s.ID,
			"parent": s.Parent,
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tids[s.Trace],
			TsUS: float64(s.Start) / 1e3, DurUS: float64(s.Dur) / 1e3,
			Args: args,
		})
	}

	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// DumpTraceFile atomically writes the tracer's spans to path as Chrome
// trace-event JSON. proc labels the process track.
func DumpTraceFile(path, proc string, t *Tracer) error {
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("obs: creating trace file: %w", err)
	}
	if err := WriteChromeTrace(f, proc, t.Snapshot()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: closing trace file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: committing trace file: %w", err)
	}
	return nil
}
