package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// A Server is a live observability endpoint started by Serve.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// Serve starts the -obs-listen HTTP endpoint on addr, exposing the
// registry live for the duration of a long run:
//
//	/metrics               Prometheus text exposition (counters, gauges,
//	                       histogram summaries with p50/p99/p999)
//	/metrics.json   the canonical JSON snapshot (what -obs-dump writes)
//	/trace.json     the installed tracer's ring as Chrome trace-event JSON
//	                (404 when no tracer is installed)
//	/debug/pprof/   net/http/pprof (profile, heap, trace, ...)
//
// A windowed view (rates, per-window quantiles) is the reader's to compute
// from two /metrics.json polls with HistSnapshot.Sub, as puffer-top does.
// The server is wall-side only: serving a request reads metric snapshots
// and never touches experiment state, so a live endpoint cannot perturb a
// run. Serve returns once the listener is bound; requests are handled on
// the HTTP server's goroutine until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		t := curTracer.Load()
		if t == nil {
			http.Error(w, "no tracer installed (run with -trace-out or -trace-sample)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		WriteChromeTrace(w, TraceProc(), t.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "puffer obs endpoint\n\n/metrics\n/metrics.json\n/trace.json\n/debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln}
	go s.srv.Serve(ln)
	return s, nil
}

// Close shuts the endpoint down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.srv.SetKeepAlivesEnabled(false)
	done := make(chan error, 1)
	go func() { done <- s.srv.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		return s.ln.Close()
	}
}
