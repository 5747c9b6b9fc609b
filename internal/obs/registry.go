package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-global recording gate. While false (the default)
// every metric write returns after one atomic load and Now returns 0, so
// engine code pays nothing for being instrumented.
var enabled atomic.Bool

// SetEnabled turns metric recording on or off process-wide. CLIs enable it
// when any observability output (-obs-listen, -obs-dump, profiling) is
// requested; the gate never changes what an experiment computes, only
// whether its timings and counts are recorded.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether metric recording is on.
func Enabled() bool { return enabled.Load() }

// epoch anchors monotonic stamps; only differences of stamps are
// meaningful.
var epoch = time.Now()

// Now returns a monotonic nanosecond stamp for timing a stage, or 0 when
// recording is disabled (so a disabled hot path never reads the clock).
// Stamps are strictly positive; pair with Histogram.ObserveSince or
// SinceNS.
func Now() int64 {
	if !enabled.Load() {
		return 0
	}
	return int64(time.Since(epoch)) + 1
}

// SinceNS returns the nanoseconds elapsed since stamp t0, or 0 for the
// zero stamp (recording was disabled when the stage started).
func SinceNS(t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	if d := int64(time.Since(epoch)) + 1 - t0; d > 0 {
		return d
	}
	return 0
}

// A Counter is a monotonically increasing atomic count.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n (recording must be enabled).
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is an atomically replaced float64 (last write wins).
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set replaces the gauge's value (recording must be enabled).
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Registry holds named metrics. All methods are safe for concurrent use;
// lookups get-or-create, so package-level handles can be built at init
// time in any dependency order.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Default is the process-wide registry every instrumented package records
// into and every CLI endpoint serves.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(name)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric in the registry, each list sorted by
// name. The capture is not a single atomic cut across metrics — writers
// may land between reads — but each individual metric is read atomically,
// which is all a wall-side consumer needs.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.Snapshot())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
