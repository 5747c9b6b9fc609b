// Package obscli wires the obs package into a command line: the shared
// -obs-listen / -obs-dump / -cpuprofile / -memprofile flags and their
// lifecycle (enable recording, bind the endpoint, start the profile before
// the run; stop, dump, and close after). Every CLI registers the same
// flags with the same semantics, so the worked examples in the README hold
// for all of them.
package obscli

import (
	"flag"

	"puffer/internal/obs"
)

// Options are the shared observability flags. Zero values mean "off"; any
// non-zero value turns metric recording on for the process.
type Options struct {
	// Listen serves the live metrics + pprof endpoint on this address for
	// the duration of the run (e.g. 127.0.0.1:9090).
	Listen string
	// Dump writes the final metrics snapshot as canonical JSON to this
	// file at exit.
	Dump string
	// CPUProfile profiles the whole run into this file.
	CPUProfile string
	// MemProfile writes a heap profile (post-GC live objects) at exit.
	MemProfile string
	// TraceOut installs a span tracer for the run and writes its ring to
	// this file at exit (Chrome trace-event JSON; Perfetto-loadable).
	TraceOut string
	// TraceSample traces 1-in-N sessions (deterministic per session id).
	// 0 defaults to 1 (trace everything) when TraceOut is set; setting it
	// without TraceOut installs the tracer for /trace.json scraping only.
	TraceSample uint64
}

// Register installs the shared flags on fs.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Listen, "obs-listen", "", "serve live metrics and pprof on this address for the run (host:port; empty = off); never changes results")
	fs.StringVar(&o.Dump, "obs-dump", "", "write the final metrics snapshot as JSON to this file at exit (path; empty = off)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (path; empty = off)")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile (post-GC) to this file at exit (path; empty = off)")
	fs.StringVar(&o.TraceOut, "trace-out", "", "record decision spans and write them to this file at exit as Chrome trace-event JSON (path; empty = off); never changes results")
	fs.Uint64Var(&o.TraceSample, "trace-sample", 0, "trace 1-in-N sessions, chosen deterministically per session id (0 = 1 = every session); with no -trace-out the ring is still scrapable at /trace.json")
}

// Any reports whether any observability output was requested.
func (o *Options) Any() bool {
	return o.Listen != "" || o.Dump != "" || o.CPUProfile != "" || o.MemProfile != "" || o.Tracing()
}

// Tracing reports whether a span tracer was requested.
func (o *Options) Tracing() bool {
	return o.TraceOut != "" || o.TraceSample > 0
}

// Start turns the requested hooks on and returns the teardown to defer
// around the run: it stops the CPU profile, writes the heap profile, dumps
// the snapshot, and closes the endpoint — in that order, so the dump and
// the profile cover the whole run. extraEnable additionally turns metric
// recording on (a CLI passes true when some output of its own — an event
// log — wants the registry live). Teardown failures are reported through
// logf: observability must never fail a finished run.
func (o *Options) Start(extraEnable bool, logf func(format string, args ...any)) (stop func(), err error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.Any() || extraEnable {
		obs.SetEnabled(true)
	}
	var tracer *obs.Tracer
	if o.Tracing() {
		tracer = obs.NewTracer(o.TraceSample, 0)
		obs.SetTracer(tracer)
	}
	var srv *obs.Server
	if o.Listen != "" {
		if srv, err = obs.Serve(o.Listen, obs.Default); err != nil {
			return nil, err
		}
		logf("obs: serving metrics and pprof on http://%s", srv.Addr)
	}
	var stopCPU func() error
	if o.CPUProfile != "" {
		if stopCPU, err = obs.StartCPUProfile(o.CPUProfile); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return func() {
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				logf("obs: %v", err)
			}
		}
		if o.MemProfile != "" {
			if err := obs.WriteHeapProfile(o.MemProfile); err != nil {
				logf("obs: writing heap profile: %v", err)
			}
		}
		if o.Dump != "" {
			if err := obs.DumpFile(o.Dump, obs.Default); err != nil {
				logf("obs: writing snapshot: %v", err)
			}
		}
		if tracer != nil && o.TraceOut != "" {
			if err := obs.DumpTraceFile(o.TraceOut, obs.TraceProc(), tracer); err != nil {
				logf("obs: writing trace: %v", err)
			} else {
				logf("obs: wrote %d spans to %s (%d overwritten by the ring)",
					tracer.Total()-tracer.Dropped(), o.TraceOut, tracer.Dropped())
			}
		}
		if err := srv.Close(); err != nil {
			logf("obs: closing endpoint: %v", err)
		}
	}, nil
}
