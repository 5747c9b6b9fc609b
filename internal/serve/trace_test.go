package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"

	"puffer/internal/obs"
)

// TestDecisionTraceAttribution is the acceptance proof for decision-level
// tracing: serve a day over loopback with every session sampled, pick the
// worst observed wire RTT (this run's tail outlier), and show that its one
// trace accounts for the latency — the client and server halves joined by
// the wire-carried trace id, the disjoint server-side stage spans summing
// to no more than the request span, everything nested inside the client's
// wire_rtt window, and the whole thing exportable as Chrome trace JSON.
func TestDecisionTraceAttribution(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	tr := obs.NewTracer(1, 0)
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	plan := warmedPlan(t, 1)
	srv, err := NewServer(Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	res, err := RunLoad(LoadConfig{Addr: ln.Addr().String(), Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d sessions failed", res.Failed)
	}

	spans := tr.Snapshot()
	byTrace := map[uint64][]obs.Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}

	// The outlier: the slowest wire_rtt in the run.
	var wire obs.Span
	for _, s := range spans {
		if s.Name == "wire_rtt" && s.Dur > wire.Dur {
			wire = s
		}
	}
	if wire.Trace == 0 {
		t.Fatal("no wire_rtt spans recorded")
	}
	trace := byTrace[wire.Trace]
	byName := map[string]obs.Span{}
	for _, s := range trace {
		byName[s.Name] = s
	}
	for _, name := range []string{"client_send", "server_request", "queue_wait", "prepare", "batch_residency", "finish", "reply"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("outlier trace %016x missing %q span (has %d spans)", wire.Trace, name, len(trace))
		}
	}

	// Both halves joined: the server_request span's wire-carried parent is
	// the client's root span id.
	if sr := byName["server_request"]; sr.Parent != wire.ID {
		t.Fatalf("server_request parent %d, want the client root span %d", sr.Parent, wire.ID)
	}

	// Attribution: the disjoint server-side stages tile the request span,
	// and everything sits inside the observed wire latency. slack absorbs
	// the independent clock reads at each stage boundary.
	const slack = int64(2e6) // 2ms
	inWire := func(name string) obs.Span {
		s := byName[name]
		if s.Start < wire.Start-slack || s.Start+s.Dur > wire.Start+wire.Dur+slack {
			t.Fatalf("%s [%d,+%d] outside the wire_rtt window [%d,+%d]",
				name, s.Start, s.Dur, wire.Start, wire.Dur)
		}
		return s
	}
	var stageSum int64
	for _, name := range []string{"queue_wait", "prepare", "batch_residency", "finish", "reply"} {
		stageSum += inWire(name).Dur
	}
	sr := inWire("server_request")
	if stageSum > sr.Dur+slack {
		t.Fatalf("stage spans sum to %dns, more than the %dns server_request", stageSum, sr.Dur)
	}
	// client_send and server_request are each contained, not summed: they
	// can overlap, because client_send's end stamp is taken after Flush
	// returns and a descheduled client goroutine runs on into the server's
	// span.
	inWire("client_send")

	// The kernel is attributed to its flush's first traced decision, whose
	// batch-residency window must contain it.
	kernelSeen := false
	for id, spansOfTrace := range byTrace {
		var kernel, res obs.Span
		for _, s := range spansOfTrace {
			switch s.Name {
			case "kernel":
				kernel = s
			case "batch_residency":
				res = s
			}
		}
		if kernel.Trace == 0 {
			continue
		}
		kernelSeen = true
		if res.Trace == 0 {
			t.Fatalf("trace %016x has a kernel span but no batch_residency", id)
		}
		if kernel.Dur > res.Dur+slack {
			t.Fatalf("kernel %dns exceeds its %dns batch_residency", kernel.Dur, res.Dur)
		}
	}
	if !kernelSeen {
		t.Fatal("no kernel spans attributed to any trace")
	}

	// The export loads as Chrome trace-event JSON: one X event per span
	// plus process/thread metadata.
	var buf bytes.Buffer
	obs.WriteChromeTrace(&buf, "serve-test", trace)
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	events, meta := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			events++
		case "M":
			meta++
		}
	}
	if events != len(trace) || meta == 0 {
		t.Fatalf("export has %d X events for %d spans, %d metadata", events, len(trace), meta)
	}
}
