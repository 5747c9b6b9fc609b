package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"puffer/internal/obs"
)

var epoch = time.Unix(0, 0).UTC()

func mustContain(t *testing.T, frame string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestRenderFrame renders two real cuts of a registry a second apart: every
// window quantile is the quantile of cur.Sub(prev) and every rate is the
// counter's delta over dt.
func TestRenderFrame(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	reg := obs.NewRegistry()
	decisions := reg.Counter("serve_decisions_total")
	lat := reg.Histogram("serve_decision_ns")
	reg.Counter("serve_queue_full_total")
	shards := reg.Counter("dist_shards_done_total")
	restarts := reg.Counter("dist_worker_restarts_total")
	retries := reg.Counter("dist_shard_retries_total")
	active := reg.Gauge("serve_sessions_active")
	gen := reg.Gauge("serve_model_generation")
	reg.Gauge("dist_workers_live").Set(3)

	decisions.Add(100)
	for i := 0; i < 100; i++ {
		lat.Observe(5000)
	}
	shards.Add(4)
	active.Set(3)
	gen.Set(1)
	prev := newCut(nil, reg.Snapshot())

	// The window: 800 decisions, p50 at 18µs, p99 at 220µs, p999 at 1.2ms.
	decisions.Add(800)
	for i := 0; i < 791; i++ {
		lat.Observe(18000)
	}
	for i := 0; i < 8; i++ {
		lat.Observe(220000)
	}
	lat.Observe(1200000)
	shards.Add(8)
	restarts.Inc()
	retries.Inc()
	active.Set(7)
	gen.Set(2)
	cur := newCut(prev, reg.Snapshot())

	dt := time.Second
	win := cur.hist("serve_decision_ns").Sub(prev.hist("serve_decision_ns"))
	for _, q := range []struct {
		p    float64
		near int64
	}{{0.50, 18000}, {0.99, 220000}, {0.999, 1200000}} {
		if v := win.Quantile(q.p); v < q.near || v > q.near+q.near/32 {
			t.Fatalf("window p%v = %d, want within bucket resolution of %d", q.p, v, q.near)
		}
	}
	frame := renderFrame(prev, cur, dt, "127.0.0.1:9090", epoch)
	mustContain(t, frame,
		"puffer-top — 127.0.0.1:9090",
		"(1.0s window)",
		"active 7",
		fmt.Sprintf("%.0f/s", float64(900-100)/dt.Seconds()),
		"800/s",
		"p50 18µs",
		// Window quantiles report their bucket's upper bound: 220µs and
		// 1.2ms land in buckets ending at 221.183µs and 1.212415ms.
		"p99 221µs",
		"p999 1.212ms",
		"p50 "+ns(win.Quantile(0.50)),
		"p99 "+ns(win.Quantile(0.99)),
		"p999 "+ns(win.Quantile(0.999)),
		fmt.Sprintf("(%d in window)", win.Count),
		"queue_full 0",
		"workers 3",
		"shards 12",
		"restarts 1  retries 1",
		"generation 2",
	)
}

// TestRenderFrameRates covers a counter that went backwards (rate clamped
// at 0) and one registered after the previous cut (its whole value is the
// delta), over a dt that is not one second.
func TestRenderFrameRates(t *testing.T) {
	prev := newCut(nil, obs.Snapshot{
		Counters: []obs.CounterSnapshot{{Name: "serve_decisions_total", Value: 900}},
		Gauges:   []obs.GaugeSnapshot{{Name: "serve_sessions_active", Value: 1}},
	})
	cur := newCut(prev, obs.Snapshot{
		Counters: []obs.CounterSnapshot{
			{Name: "serve_decisions_total", Value: 100},
			{Name: "serve_sessions_total", Value: 30},
		},
		Gauges: []obs.GaugeSnapshot{{Name: "serve_sessions_active", Value: 2}},
	})
	frame := renderFrame(prev, cur, 2*time.Second, "x", epoch)
	mustContain(t, frame, "decisions   0/s", "opening 15.0/s", "total 30")
}

// TestRenderFrameIdleWindow: a histogram that saw nothing since the last
// poll shows its last non-empty window, until a new one replaces it.
func TestRenderFrameIdleWindow(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	reg := obs.NewRegistry()
	lat := reg.Histogram("fleet_decision_ns")
	lat.Observe(1000)
	c0 := newCut(nil, reg.Snapshot())
	for i := 0; i < 3; i++ {
		lat.Observe(40000)
	}
	c1 := newCut(c0, reg.Snapshot())
	busy := c1.hist("fleet_decision_ns").Sub(c0.hist("fleet_decision_ns"))
	c2 := newCut(c1, reg.Snapshot())

	frame := renderFrame(c1, c2, time.Second, "x", epoch)
	mustContain(t, frame, "fleet dec", "p50 "+ns(busy.Quantile(0.5)), "(3 in window)")

	lat.Observe(900000)
	c3 := newCut(c2, reg.Snapshot())
	frame = renderFrame(c2, c3, time.Second, "x", epoch)
	mustContain(t, frame, "p50 "+ns(c3.hist("fleet_decision_ns").Sub(c2.hist("fleet_decision_ns")).Quantile(0.5)),
		"(1 in window)")
}

// TestRenderFrameFirstPoll: with no previous cut there are values but no
// rates and no windows.
func TestRenderFrameFirstPoll(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	reg := obs.NewRegistry()
	reg.Gauge("serve_sessions_active").Set(5)
	reg.Counter("serve_sessions_total").Add(9)
	reg.Counter("serve_decisions_total").Add(42)
	reg.Histogram("serve_decision_ns").Observe(25000)

	frame := renderFrame(nil, newCut(nil, reg.Snapshot()), 0, "x", epoch)
	mustContain(t, frame, "(first poll)", "active 5   total 9")
	for _, absent := range []string{"/s", "in window", "decisions"} {
		if strings.Contains(frame, absent) {
			t.Fatalf("first frame shows %q:\n%s", absent, frame)
		}
	}
}

func TestRenderFrameEmpty(t *testing.T) {
	frame := renderFrame(nil, newCut(nil, obs.Snapshot{}), 0, "x", epoch)
	if !strings.Contains(frame, "no metrics yet") {
		t.Fatalf("empty snapshot frame: %q", frame)
	}
}

// TestFetchLiveEndpoint runs puffer-top -once against a real obs endpoint
// while a writer keeps recording: both polls answer and the frame carries
// a rate and a window.
func TestFetchLiveEndpoint(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	reg := obs.NewRegistry()
	reg.Gauge("serve_sessions_active").Set(5)
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		decisions := reg.Counter("serve_decisions_total")
		lat := reg.Histogram("serve_decision_ns")
		for {
			select {
			case <-stop:
				return
			default:
			}
			decisions.Inc()
			lat.Observe(25000)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	defer func() { close(stop); <-stopped }()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run([]string{"-once", "-interval", "50ms", "-addr", srv.Addr})
	os.Stdout = stdout
	w.Close()
	frame := <-out
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, frame, "puffer-top — "+srv.Addr, "active 5", "/s", "in window")
}
