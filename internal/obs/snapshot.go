package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"puffer/internal/wire"
)

// CounterSnapshot is one counter's captured value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's captured value.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a registry capture: every metric, each list sorted by name,
// so the JSON rendering is canonical for a given set of values.
type Snapshot struct {
	Counters   []CounterSnapshot `json:"counters"`
	Gauges     []GaugeSnapshot   `json:"gauges"`
	Histograms []HistSnapshot    `json:"histograms"`
}

// quantiles are the exposition quantiles every histogram publishes.
var quantiles = []struct {
	label string
	p     float64
}{{"0.5", 0.50}, {"0.99", 0.99}, {"0.999", 0.999}}

// WriteJSON renders the snapshot as indented canonical JSON (stable for
// fixed metric values: lists are name-sorted and field order is fixed).
func (s Snapshot) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: counters and gauges verbatim, histograms as summaries (p50, p99,
// p999 plus _sum and _count).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %g\n", g.Name, g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(bw, "# TYPE %s summary\n", h.Name)
		for _, q := range quantiles {
			fmt.Fprintf(bw, "%s{quantile=%q} %d\n", h.Name, q.label, h.Quantile(q.p))
		}
		fmt.Fprintf(bw, "%s_sum %d\n%s_count %d\n", h.Name, h.Sum, h.Name, h.Count)
	}
	return bw.Flush()
}

// DumpFile atomically writes the registry's snapshot as JSON to path — the
// -obs-dump exit artifact CLIs and the nightly workflow publish.
func DumpFile(path string, reg *Registry) error {
	return wire.WriteFile(path, reg.Snapshot().WriteJSON)
}
