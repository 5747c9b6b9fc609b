// Command puffer-top is a live terminal dashboard over any puffer obs
// endpoint (-obs-listen of puffer-serve, puffer-daily, puffer-sweep, ...).
// It polls /metrics.json on a fixed cadence and renders the fleet's vital
// signs — concurrency, sessions/sec, decision-latency quantiles, batch
// shapes, queue-full and clock-violation counters, and the served model
// generation. Rates and window quantiles are the difference of two polls
// (obs.HistSnapshot.Sub), so the endpoint keeps no history and watching a
// run cannot perturb it.
//
//	puffer-top                          # watch 127.0.0.1:9090
//	puffer-top -addr 127.0.0.1:9091 -interval 2s
//	puffer-top -once                    # poll twice, -interval apart; print one frame and exit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"puffer/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("puffer-top: ")
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("puffer-top", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9090", "obs endpoint to watch (host:port of some process's -obs-listen)")
		interval = fs.Duration("interval", time.Second, "poll and redraw cadence")
		once     = fs.Bool("once", false, "poll twice one -interval apart, print one frame without clearing the screen, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := "http://" + *addr + "/metrics.json"
	client := &http.Client{Timeout: 10 * time.Second}

	// poll fetches the next cut and renders the frame it closes.
	var (
		prev   *cut
		prevAt time.Time
	)
	poll := func() (string, error) {
		snap, err := fetch(client, url)
		if err != nil {
			return "", err
		}
		now := time.Now()
		cur := newCut(prev, snap)
		frame := renderFrame(prev, cur, now.Sub(prevAt), *addr, now)
		prev, prevAt = cur, now
		return frame, nil
	}

	if *once {
		if _, err := poll(); err != nil {
			return err
		}
		time.Sleep(*interval)
		frame, err := poll()
		if err != nil {
			return err
		}
		fmt.Print(frame)
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		frame, err := poll()
		if err != nil {
			frame = fmt.Sprintf("puffer-top — %s — %s\n\n  %v\n", *addr,
				time.Now().Format("15:04:05"), err)
		}
		// Clear screen, home cursor, draw.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		select {
		case <-sig:
			fmt.Println()
			return nil
		case <-tick.C:
		}
	}
}

func fetch(client *http.Client, url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("decoding %s: %w", url, err)
	}
	return snap, nil
}

// A cut is one poll of the endpoint's snapshot plus each histogram's
// newest non-empty window up to it: the difference from the previous cut,
// or, for a histogram idle since then, the window held from before — so an
// idle moment shows the most recent activity instead of zeros.
type cut struct {
	snap obs.Snapshot
	wins map[string]obs.HistSnapshot
}

// newCut wraps snap as the cut after prev (nil for the first poll, which
// has no window yet).
func newCut(prev *cut, snap obs.Snapshot) *cut {
	c := &cut{snap: snap, wins: map[string]obs.HistSnapshot{}}
	if prev == nil {
		return c
	}
	for name, w := range prev.wins {
		c.wins[name] = w
	}
	for _, h := range snap.Histograms {
		if w := h.Sub(prev.hist(h.Name)); w.Count > 0 {
			c.wins[h.Name] = w
		}
	}
	return c
}

// Lookups over a cut. Every reader tolerates absent metrics (a daemon that
// has not served yet, a virtual-only run) by returning ok=false or the
// zero value, so the frame renders whatever subset is live.

func (c *cut) counter(name string) (int64, bool) {
	for _, m := range c.snap.Counters {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (c *cut) gauge(name string) (float64, bool) {
	for _, m := range c.snap.Gauges {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (c *cut) hist(name string) obs.HistSnapshot {
	for _, m := range c.snap.Histograms {
		if m.Name == name {
			return m
		}
	}
	return obs.HistSnapshot{}
}

func ns(v int64) string { return time.Duration(v).Round(time.Microsecond).String() }

// renderFrame draws one dashboard frame from the cut cur and the cut prev
// taken dt earlier (nil on the first poll, which shows no rates). Pure
// (clock passed in), so tests assert on its output directly.
func renderFrame(prev, cur *cut, dt time.Duration, addr string, now time.Time) string {
	var b strings.Builder
	window := "first poll"
	if prev != nil {
		window = fmt.Sprintf("%.1fs window", dt.Seconds())
	}
	fmt.Fprintf(&b, "puffer-top — %s — %s (%s)\n\n", addr, now.Format("15:04:05"), window)

	rows := 0
	row := func(label, text string) {
		rows++
		fmt.Fprintf(&b, "  %-11s %s\n", label, text)
	}
	counterRate := func(name string) (float64, bool) {
		v, ok := cur.counter(name)
		if !ok || prev == nil || dt <= 0 {
			return 0, false
		}
		old, _ := prev.counter(name)
		return float64(max(v-old, 0)) / dt.Seconds(), true
	}
	histWindow := func(name string) (count, p50, p99, p999 int64, ok bool) {
		w, ok := cur.wins[name]
		return w.Count, w.Quantile(0.50), w.Quantile(0.99), w.Quantile(0.999), ok
	}

	// Sessions: the serving daemon's live gauge, or the load generator's.
	if v, ok := cur.gauge("serve_sessions_active"); ok {
		line := fmt.Sprintf("active %.0f", v)
		if rate, ok := counterRate("serve_sessions_total"); ok {
			line += fmt.Sprintf("   opening %.1f/s", rate)
		}
		if tot, ok := cur.counter("serve_sessions_total"); ok {
			line += fmt.Sprintf("   total %d", tot)
		}
		row("sessions", line)
	} else if v, ok := cur.gauge("runner_sessions_per_sec"); ok {
		row("sessions", fmt.Sprintf("%.1f/s (runner)", v))
	}

	// Decisions: rate plus the windowed latency quantiles, serving-side
	// first, fleet engine otherwise.
	for _, src := range []struct{ counter, hist, label string }{
		{"serve_decisions_total", "serve_decision_ns", "decisions"},
		{"", "serve_request_ns", "requests"},
		{"", "serve_client_rtt_ns", "wire rtt"},
		{"", "fleet_decision_ns", "fleet dec"},
	} {
		line := ""
		if src.counter != "" {
			if rate, ok := counterRate(src.counter); ok {
				line += fmt.Sprintf("%.0f/s   ", rate)
			}
		}
		if n, p50, p99, p999, ok := histWindow(src.hist); ok {
			line += fmt.Sprintf("p50 %s  p99 %s  p999 %s  (%d in window)",
				ns(p50), ns(p99), ns(p999), n)
		}
		if line != "" {
			row(src.label, line)
		}
	}

	// Batch shape: serving batches in sessions, service batches in rows.
	if n, p50, p99, _, ok := histWindow("serve_batch_sessions"); ok {
		row("batch", fmt.Sprintf("p50 %d  p99 %d sessions/flush  (%d flushes in window)",
			p50, p99, n))
	}
	if n, p50, p99, _, ok := histWindow("fleet_batch_rows"); ok {
		row("rows", fmt.Sprintf("p50 %d  p99 %d rows/net  (%d batches in window)",
			p50, p99, n))
	}

	// Invariant counters: these being nonzero is the headline.
	inv := ""
	for _, c := range []struct{ name, label string }{
		{"serve_queue_full_total", "queue_full"},
		{"serve_clock_violations_total", "clock_violations"},
		{"serve_proto_errors_total", "proto_errors"},
		{"serve_sessions_aborted_total", "aborted"},
	} {
		if v, ok := cur.counter(c.name); ok {
			inv += fmt.Sprintf("%s %d   ", c.label, v)
		}
	}
	if inv != "" {
		row("counters", strings.TrimRight(inv, " "))
	}

	// Dist engine: live worker fleet, shard progress, and fault handling.
	if live, ok := cur.gauge("dist_workers_live"); ok {
		line := fmt.Sprintf("workers %.0f", live)
		if done, ok := cur.counter("dist_shards_done_total"); ok {
			line += fmt.Sprintf("   shards %d", done)
		}
		if n, p50, p99, _, ok := histWindow("dist_shard_wall_ns"); ok {
			line += fmt.Sprintf("   shard p50 %s  p99 %s  (%d in window)", ns(p50), ns(p99), n)
		}
		if restarts, ok := cur.counter("dist_worker_restarts_total"); ok {
			retries, _ := cur.counter("dist_shard_retries_total")
			line += fmt.Sprintf("   restarts %d  retries %d", restarts, retries)
		}
		row("dist", line)
	}

	// Model: served generation and rotation count.
	if gen, ok := cur.gauge("serve_model_generation"); ok {
		line := fmt.Sprintf("generation %.0f", gen)
		if rot, ok := cur.counter("serve_model_rotations_total"); ok {
			line += fmt.Sprintf("   rotations %d", rot)
		}
		row("model", line)
	}

	if rows == 0 {
		fmt.Fprintf(&b, "  (no metrics yet)\n")
	}
	return b.String()
}
