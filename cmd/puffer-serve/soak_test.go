package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSoak is the wall-clock soak harness: it builds the daemon and the
// load generator as real binaries, runs them as subprocesses, kills the
// client mid-run and restarts it, probes the live /metrics endpoint, pins
// the serving invariants (zero clock violations, no model violations, the
// served table byte-identical to the -virtual twin), and SIGTERMs the
// daemon into a clean drain.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak: skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"puffer/cmd/puffer-serve", "puffer/cmd/puffer-load")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}
	serveBin := filepath.Join(bin, "puffer-serve")
	loadBin := filepath.Join(bin, "puffer-load")

	// Day 1 serves a trained model, so -rotate-every has a model to
	// republish (on day 0 Rotate is a no-op); a small session count keeps
	// the warmup and the full trial fast while still spanning every arm.
	common := []string{"-scenario", "stationary", "-day", "1", "-sessions", "48"}

	srv := exec.Command(serveBin, append([]string{
		"-listen", "127.0.0.1:0", "-obs-listen", "127.0.0.1:0", "-drain-timeout", "5s",
		"-rotate-every", "50ms",
	}, common...)...)
	srvOut, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srvErr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The daemon's stderr announces the metrics endpoint; its stdout
	// announces readiness with the bound serving address.
	metricsCh := make(chan string, 1)
	var srvErrBuf bytes.Buffer
	go func() {
		sc := bufio.NewScanner(io.TeeReader(srvErr, &srvErrBuf))
		re := regexp.MustCompile(`http://(\S+)`)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case metricsCh <- m[1]:
				default:
				}
			}
		}
	}()
	srvReader := bufio.NewScanner(srvOut)
	var addr string
	var srvStdout []string
	if srvReader.Scan() {
		line := srvReader.Text()
		srvStdout = append(srvStdout, line)
		f := strings.Fields(line) // "serving <plan> on <addr>"
		if len(f) == 4 && f[0] == "serving" {
			addr = f[3]
		}
	}
	if addr == "" {
		t.Fatalf("no readiness line from daemon; stderr:\n%s", srvErrBuf.String())
	}
	var metricsAddr string
	select {
	case metricsAddr = <-metricsCh:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never announced its metrics endpoint; stderr:\n%s", srvErrBuf.String())
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		for srvReader.Scan() {
			srvStdout = append(srvStdout, srvReader.Text())
		}
	}()

	// Phase 1: kill a paced client mid-run (SIGKILL — no goodbye frames),
	// proving client death never wounds the daemon.
	killed := exec.Command(loadBin, append([]string{
		"-addr", addr, "-timescale", "0.05", "-q",
	}, common...)...)
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	killed.Process.Kill()
	killed.Wait()

	// The daemon must still be alive and serving metrics.
	snap := fetchMetrics(t, metricsAddr)
	if _, ok := snap["counters"]; !ok {
		t.Fatalf("live /metrics.json has no counters section: %v", snap)
	}

	// Phase 2: a fresh client runs the full trial to completion against
	// the same daemon. Session state is per-connection, so neither the
	// earlier carnage nor the model rotations may perturb a single byte of
	// the results table; puffer-load exits non-zero if any session saw two
	// model generations.
	full := exec.Command(loadBin, append([]string{"-addr", addr, "-q"}, common...)...)
	fullOut, err := full.Output()
	if err != nil {
		t.Fatalf("full load run failed: %v", err)
	}

	virtual := exec.Command(loadBin, append([]string{"-virtual", "-q"}, common...)...)
	virtualOut, err := virtual.Output()
	if err != nil {
		t.Fatalf("virtual twin run failed: %v", err)
	}
	if !bytes.Equal(fullOut, virtualOut) {
		t.Fatalf("differential failure: served table != virtual twin\nserved:\n%s\nvirtual:\n%s",
			fullOut, virtualOut)
	}

	// Invariants from the daemon's own metrics.
	snap = fetchMetrics(t, metricsAddr)
	if v := counter(snap, "serve_clock_violations_total"); v != 0 {
		t.Fatalf("serve_clock_violations_total = %v, want 0", v)
	}
	if v := counter(snap, "serve_decisions_total"); v <= 0 {
		t.Fatalf("serve_decisions_total = %v, want > 0", v)
	}
	if v := counter(snap, "serve_model_rotations_total"); v < 1 {
		t.Fatalf("serve_model_rotations_total = %v, want >= 1 under -rotate-every", v)
	}

	// Phase 3: SIGTERM drains cleanly — exit 0 and a drain summary. The
	// scanner must hit EOF before Wait runs: Wait closes the pipe and
	// would race the drain summary out of the buffer.
	srv.Process.Signal(syscall.SIGTERM)
	<-srvDone
	werr := srv.Wait()
	if werr != nil {
		t.Fatalf("daemon exited %v on SIGTERM; stderr:\n%s", werr, srvErrBuf.String())
	}
	last := ""
	if len(srvStdout) > 0 {
		last = srvStdout[len(srvStdout)-1]
	}
	if !strings.HasPrefix(last, "drained:") {
		t.Fatalf("daemon's last line %q is not a drain summary; stdout: %v", last, srvStdout)
	}
}

func fetchMetrics(t *testing.T, addr string) map[string]any {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics.json", addr))
	if err != nil {
		t.Fatalf("live metrics endpoint: %v", err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding metrics snapshot: %v", err)
	}
	return snap
}

func counter(snap map[string]any, name string) float64 {
	arr, _ := snap["counters"].([]any)
	for _, e := range arr {
		if m, _ := e.(map[string]any); m["name"] == name {
			v, _ := m["value"].(float64)
			return v
		}
	}
	return 0
}
