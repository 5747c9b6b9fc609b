package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Decision-level tracing: a sampled, ring-buffered span recorder that makes
// a single p999 outlier attributable to a stage. A span is one timed stage
// of one traced operation — {trace id, span id, parent, name, start, dur,
// attrs} — and a trace is every span sharing a trace id, possibly recorded
// on both ends of a wire (the serve protocol carries the trace id so client
// and server halves join).
//
// Tracing obeys the same zero-perturbation contract as every other obs
// output:
//
//   - Recording sits behind the process-global gate: while SetEnabled(false)
//     or no tracer is installed, Tracing() returns nil after one atomic
//     load and instrumented code records nothing and reads no clock.
//   - Sampling is DETERMINISTIC per session id (Sampled), never drawn from
//     an experiment RNG, so which sessions are traced is reproducible
//     run-to-run and tracing two runs traces the same decisions.
//   - Spans are write-only from engine code and excluded from results,
//     checkpoints, and manifests; the ring overwrites oldest spans instead
//     of growing, so a tracer's memory is bounded for arbitrarily long runs.

// Span is one recorded stage of a traced operation. Start is a monotonic
// nanosecond stamp from Now (process-epoch relative); Dur is the stage's
// duration in nanoseconds. Parent is the span id this span nests under (0
// for a root span).
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Name   string
	Start  int64
	Dur    int64
	Attrs  []Attr
}

// Attr is one integer-valued span attribute (rows, bytes, session ids —
// trace attributes in this system are always counts or identifiers).
type Attr struct {
	Key string
	Val int64
}

// A Tracer records sampled spans into a fixed-capacity ring. Record is safe
// for concurrent use; the ring keeps the most recent Cap spans and Dropped
// reports how many were overwritten.
type Tracer struct {
	sample uint64
	cap    int

	ids atomic.Uint64 // span id allocator (ids are unique, not meaningful)

	mu    sync.Mutex
	ring  []Span
	total uint64 // spans ever recorded
}

// DefaultTraceCap is the default ring capacity in spans (~64k spans ≈ a few
// MB): enough for every span of a smoke run and a bounded tail of a long one.
const DefaultTraceCap = 1 << 16

// NewTracer returns a tracer sampling 1-in-sample sessions (sample <= 1
// traces every session) with a ring of capacity spans (<= 0 uses
// DefaultTraceCap).
func NewTracer(sample uint64, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	if sample == 0 {
		sample = 1
	}
	return &Tracer{sample: sample, cap: capacity}
}

// curTracer is the installed process-wide tracer (nil = tracing off).
var curTracer atomic.Pointer[Tracer]

// TraceProc returns the label trace exports use for this process's track:
// the executable's name.
func TraceProc() string { return filepath.Base(os.Args[0]) }

// SetTracer installs (or, with nil, removes) the process-wide tracer.
// Tracing additionally requires the recording gate (SetEnabled), matching
// every other obs output.
func SetTracer(t *Tracer) { curTracer.Store(t) }

// Tracing returns the active tracer, or nil when recording is disabled or
// no tracer is installed. Engine code calls this once per potential span
// group; the disabled path is a single atomic load.
func Tracing() *Tracer {
	if !enabled.Load() {
		return nil
	}
	return curTracer.Load()
}

// mix64 is the splitmix64 finalizer: a fixed bijective hash used for
// deterministic sampling and trace-id derivation. It draws from no RNG and
// reads no clock, so everything derived from it is reproducible.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampled reports whether the session id's decisions are traced. The rule
// is a pure function of (session id, sampling rate) — mix64(id) mod sample
// — so the traced subset is deterministic and identical on both ends of a
// wire that agree on the rate, and a traced run re-traces the same sessions.
func (t *Tracer) Sampled(sessionID int64) bool {
	if t.sample <= 1 {
		return true
	}
	return mix64(uint64(sessionID))%t.sample == 0
}

// DecisionTraceID derives the trace id of one decision from its (session
// id, per-session decision sequence) pair: deterministic, collision-mixed,
// and never zero (zero means "untraced" on the wire).
func DecisionTraceID(sessionID int64, seq uint64) uint64 {
	id := mix64(mix64(uint64(sessionID)*0x9e3779b97f4a7c15) ^ (seq + 1))
	if id == 0 {
		return 1
	}
	return id
}

// NewSpanID allocates a process-unique span id (never zero).
func (t *Tracer) NewSpanID() uint64 { return t.ids.Add(1) }

// Record appends one span to the ring, overwriting the oldest when full.
// The span's ID should come from NewSpanID; Record never blocks beyond the
// ring mutex and never fails.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.total%uint64(t.cap)] = s
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many spans were ever recorded; Dropped how many the
// ring overwrote.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many spans the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Snapshot copies the ring's spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.total > uint64(len(t.ring)) {
		// Full ring: oldest is at the next write slot.
		at := int(t.total % uint64(t.cap))
		out = append(out, t.ring[at:]...)
		out = append(out, t.ring[:at]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// The flush-trace context attributes shared batched work — one inference
// flush serves many sessions — to exactly one trace: the first sampled
// decision of the batch. fleet.InferenceService sets it for the duration
// of a Flush, on behalf of its single owner (the fleet event loop, the
// serve batcher); it and the packed kernel read it to parent their spans.
// It is wall-side state: nothing result-shaping ever reads it.
type flushTrace struct{ trace, parent uint64 }

var curFlush atomic.Pointer[flushTrace]

// SetFlushTrace attributes batched work recorded until ClearFlushTrace to
// the given (trace, parent span). trace 0 is ignored.
func SetFlushTrace(trace, parent uint64) {
	if trace == 0 {
		return
	}
	curFlush.Store(&flushTrace{trace, parent})
}

// ClearFlushTrace removes the flush attribution.
func ClearFlushTrace() { curFlush.Store(nil) }

// FlushTrace returns the current flush attribution (0, 0 when none).
func FlushTrace() (trace, parent uint64) {
	if f := curFlush.Load(); f != nil {
		return f.trace, f.parent
	}
	return 0, 0
}

// TraceQuantiles computes exact quantiles over the durations of the named
// spans in a snapshot (the client RTT summary's source). Returns the
// matching span count; quantile values are 0 when no span matched.
func TraceQuantiles(spans []Span, name string, ps []float64) (n int, out []int64) {
	var durs []int64
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, s.Dur)
		}
	}
	out = make([]int64, len(ps))
	if len(durs) == 0 {
		return 0, out
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	for i, p := range ps {
		rank := int(float64(len(durs))*p+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(durs) {
			rank = len(durs) - 1
		}
		out[i] = durs[rank]
	}
	return len(durs), out
}

// TraceIDString renders a trace id the way every export format spells it.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }
