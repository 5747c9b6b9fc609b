package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestTracingGate(t *testing.T) {
	SetEnabled(false)
	SetTracer(nil)
	if Tracing() != nil {
		t.Fatal("Tracing() non-nil with no tracer installed")
	}
	tr := NewTracer(1, 16)
	SetTracer(tr)
	defer SetTracer(nil)
	if Tracing() != nil {
		t.Fatal("Tracing() non-nil while recording disabled")
	}
	SetEnabled(true)
	defer SetEnabled(false)
	if Tracing() != tr {
		t.Fatal("Tracing() did not return the installed tracer")
	}
}

func TestSampledDeterministic(t *testing.T) {
	tr := NewTracer(8, 16)
	hits := 0
	for id := int64(0); id < 10000; id++ {
		a, b := tr.Sampled(id), tr.Sampled(id)
		if a != b {
			t.Fatalf("Sampled(%d) not deterministic", id)
		}
		if a {
			hits++
		}
	}
	// 1-in-8 sampling over a well-mixed hash: expect ~1250 of 10000.
	if hits < 1000 || hits > 1500 {
		t.Fatalf("1-in-8 sampling hit %d of 10000 session ids", hits)
	}
	all := NewTracer(1, 16)
	for id := int64(0); id < 100; id++ {
		if !all.Sampled(id) {
			t.Fatalf("sample rate 1 skipped session %d", id)
		}
	}
}

func TestDecisionTraceID(t *testing.T) {
	seen := map[uint64]bool{}
	for sess := int64(0); sess < 50; sess++ {
		for seq := uint64(0); seq < 50; seq++ {
			id := DecisionTraceID(sess, seq)
			if id == 0 {
				t.Fatalf("zero trace id for (%d, %d)", sess, seq)
			}
			if id != DecisionTraceID(sess, seq) {
				t.Fatalf("trace id for (%d, %d) not deterministic", sess, seq)
			}
			if seen[id] {
				t.Fatalf("trace id collision at (%d, %d)", sess, seq)
			}
			seen[id] = true
		}
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: 1, ID: uint64(i + 1), Name: "s", Start: int64(i)})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot holds %d spans, want 4", len(snap))
	}
	for i, s := range snap {
		if want := int64(6 + i); s.Start != want {
			t.Fatalf("snapshot[%d].Start = %d, want %d (oldest-first unwrap)", i, s.Start, want)
		}
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(1, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(Span{Trace: uint64(g + 1), ID: tr.NewSpanID(), Name: "x"})
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Total(); got != 800 {
		t.Fatalf("Total = %d, want 800", got)
	}
}

func TestTraceQuantiles(t *testing.T) {
	var spans []Span
	for i := int64(1); i <= 100; i++ {
		spans = append(spans, Span{Name: WireRTT, Dur: i * 1000})
	}
	spans = append(spans, Span{Name: "other", Dur: 1 << 40})
	n, qs := TraceQuantiles(spans, []float64{0.50, 0.99, 1.0})
	if n != 100 {
		t.Fatalf("matched %d spans, want 100", n)
	}
	if qs[0] != 50000 || qs[1] != 99000 || qs[2] != 100000 {
		t.Fatalf("quantiles = %v, want [50000 99000 100000]", qs)
	}
	n, qs = TraceQuantiles(spans[100:], []float64{0.5})
	if n != 0 || qs[0] != 0 {
		t.Fatalf("no %s span: n=%d qs=%v, want 0 and [0]", WireRTT, n, qs)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{Trace: 0xabc, ID: 1, Name: "wire_rtt", Start: 1000, Dur: 9000},
		{Trace: 0xabc, ID: 2, Parent: 1, Name: "queue_wait", Start: 2000, Dur: 1000,
			Attrs: []Attr{{Key: "session", Val: 42}}},
		{Trace: 0xdef, ID: 3, Name: "wire_rtt", Start: 5000, Dur: 4000},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "testproc", spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 1 process_name + 2 thread_name metadata + 3 X events.
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("X event %q has dur %v", ev.Name, ev.Dur)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 3 || complete != 3 {
		t.Fatalf("got %d metadata + %d complete events, want 3 + 3", meta, complete)
	}
	// Parent precedes child on the same tid (Chrome nests by emission order
	// on ties).
	var rttAt, qwAt int
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "wire_rtt" && ev.Args["trace"] == TraceIDString(0xabc) {
			rttAt = i
		}
		if ev.Name == "queue_wait" {
			qwAt = i
			if ev.Args["session"] != float64(42) {
				t.Fatalf("queue_wait lost its attr: %v", ev.Args)
			}
		}
	}
	if rttAt >= qwAt {
		t.Fatal("parent span emitted after child")
	}
}
