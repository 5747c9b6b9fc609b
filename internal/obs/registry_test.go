package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryGetOrCreate: lookups are idempotent and return the same
// handle, so package-level vars built at init in any order all share
// state.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter is not get-or-create")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge is not get-or-create")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("Histogram is not get-or-create")
	}
}

// TestSnapshotSortedCanonical: snapshots list every metric sorted by name
// and render to identical JSON for identical values.
func TestSnapshotSortedCanonical(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("z_total").Add(3)
	r.Counter("a_total").Add(1)
	r.Gauge("m_rate").Set(2.5)
	r.Histogram("b_ns").Observe(100)
	r.Histogram("a_ns").Observe(50)

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" || s.Counters[1].Name != "z_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if len(s.Histograms) != 2 || s.Histograms[0].Name != "a_ns" || s.Histograms[1].Name != "b_ns" {
		t.Fatalf("histograms not sorted: %+v", s.Histograms)
	}
	if s.Counters[1].Value != 3 || s.Gauges[0].Value != 2.5 {
		t.Fatalf("values wrong: %+v", s)
	}

	var one, two strings.Builder
	if err := s.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("snapshot JSON is not canonical across captures of unchanged values")
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(one.String()), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}

// TestWritePrometheus: the text exposition carries TYPE lines, counter and
// gauge samples, and per-histogram quantile/sum/count lines.
func TestWritePrometheus(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("reqs_total").Add(7)
	r.Gauge("rate").Set(1.5)
	h := r.Histogram("lat_ns")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	var buf strings.Builder
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE reqs_total counter\nreqs_total 7\n",
		"# TYPE rate gauge\nrate 1.5\n",
		"# TYPE lat_ns summary\n",
		`lat_ns{quantile="0.5"} `,
		`lat_ns{quantile="0.99"} `,
		`lat_ns{quantile="0.999"} `,
		"lat_ns_sum 5050\n",
		"lat_ns_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestDumpFile: atomic JSON dump lands and parses.
func TestDumpFile(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	path := filepath.Join(t.TempDir(), "nested", "metrics.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := DumpFile(path, r); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 2 {
		t.Fatalf("dump content wrong: %+v", s)
	}
}

// TestServe: the live endpoint answers /metrics (Prometheus text),
// /metrics.json (JSON snapshot), and /debug/pprof/cmdline.
func TestServe(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("served_total").Add(9)
	r.Histogram("d_ns").Observe(1234)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "served_total 9") || !strings.Contains(body, `d_ns{quantile="0.99"}`) {
		t.Fatalf("/metrics body wrong:\n%s", body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	body, ctype = get("/metrics.json")
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/metrics.json is not a JSON snapshot: %v", err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 9 {
		t.Fatalf("/metrics.json content wrong: %+v", s)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/metrics.json content type %q", ctype)
	}
	if body, _ := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	if body, _ := get("/"); !strings.Contains(body, "/metrics") {
		t.Fatalf("index page wrong:\n%s", body)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestProfileHooks: the -cpuprofile/-memprofile primitives produce
// non-empty pprof files.
func TestProfileHooks(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = fmt.Sprintf("%d", i)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}
