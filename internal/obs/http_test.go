package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer boots an endpoint on a fresh registry and returns it with a
// base URL and a client.
func startServer(t *testing.T) (*Registry, *Server, string, *http.Client) {
	t.Helper()
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return reg, srv, "http://" + srv.Addr, &http.Client{Timeout: 10 * time.Second}
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, string(body)
}

func TestHTTPMetricsEndpoints(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	reg, _, base, client := startServer(t)
	reg.Counter("reqs_total").Add(7)
	reg.Gauge("inflight").Set(3)
	reg.Histogram("lat_ns").Observe(1500)

	// /metrics: Prometheus text exposition.
	resp, body := get(t, client, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{"reqs_total 7", "inflight 3", "lat_ns_count 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /metrics.json: the canonical JSON snapshot.
	resp, body = get(t, client, base+"/metrics.json")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics.json content type %q", ct)
	}
	var snap struct {
		Counters []CounterSnapshot `json:"counters"`
		Gauges   []GaugeSnapshot   `json:"gauges"`
		Hists    []HistSnapshot    `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "reqs_total" || snap.Counters[0].Value != 7 {
		t.Fatalf("/metrics.json counters: %+v", snap.Counters)
	}
	if len(snap.Hists) != 1 || snap.Hists[0].Count != 1 {
		t.Fatalf("/metrics.json histograms: %+v", snap.Hists)
	}

	// Root index lists the routes; unknown paths 404.
	_, body = get(t, client, base+"/")
	for _, want := range []string{"/metrics", "/metrics.json", "/trace.json", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q:\n%s", want, body)
		}
	}
	for _, path := range []string{"/nope", "/metrics/history.json", "/debug/vars"} {
		if resp, _ := get(t, client, base+path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %s", path, resp.Status)
		}
	}
}

func TestHTTPTraceEndpoint(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	_, _, base, client := startServer(t)

	// No tracer installed: 404 with a hint.
	SetTracer(nil)
	resp, body := get(t, client, base+"/trace.json")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace.json without tracer: %s", resp.Status)
	}
	if !strings.Contains(body, "no tracer") {
		t.Fatalf("/trace.json 404 body: %q", body)
	}

	tr := NewTracer(1, 64)
	SetTracer(tr)
	defer SetTracer(nil)
	tr.Record(Span{Trace: 9, ID: 1, Name: "wire_rtt", Start: 100, Dur: 50})
	resp, body = get(t, client, base+"/trace.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace.json: %s", resp.Status)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace.json is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "wire_rtt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/trace.json missing recorded span:\n%s", body)
	}
}

func TestHTTPPprofRoutes(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	_, _, base, client := startServer(t)

	resp, body := get(t, client, base+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %s", resp.Status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index body:\n%s", body)
	}
	resp, _ = get(t, client, base+"/debug/pprof/heap")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap: %s", resp.Status)
	}
	resp, _ = get(t, client, base+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: %s", resp.Status)
	}
}

// TestHTTPConcurrentScrape hammers every read endpoint while metric writers
// and a span recorder stay hot — the -race proof that wall-side consumers
// never conflict with engine-side recording.
func TestHTTPConcurrentScrape(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	reg, _, base, client := startServer(t)
	tr := NewTracer(1, 256)
	SetTracer(tr)
	defer SetTracer(nil)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := reg.Counter("hot_total")
			g := reg.Gauge("hot_gauge")
			h := reg.Histogram("hot_ns")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(int64(i%1000) + 1)
				tr.Record(Span{Trace: uint64(w + 1), ID: tr.NewSpanID(),
					Name: "hot", Start: int64(i), Dur: 10})
			}
		}(w)
	}

	var readers sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics.json", "/trace.json"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				resp, err := client.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %s", path, resp.Status)
					return
				}
			}
		}(path)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if reg.Counter("hot_total").Value() == 0 {
		t.Fatal("writers never ran")
	}
}

// TestServerClose proves Close is safe on a nil server and releases the
// listener.
func TestServerClose(t *testing.T) {
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The listener is gone after Close.
	client := &http.Client{Timeout: time.Second}
	if _, err := client.Get(fmt.Sprintf("http://%s/metrics", srv.Addr)); err == nil {
		t.Fatal("endpoint still serving after Close")
	}
}
