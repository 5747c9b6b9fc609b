// Command puffer-load drives a running puffer-serve daemon with the full
// session population of a scenario day: one TCP connection per session,
// arrivals on the plan's own schedule, the viewer/player/network simulation
// client-side and every ABR decision served remotely. Session outcomes fold
// through the canonical sharded aggregation, so the per-scheme table a
// clean run prints is byte-identical to the same day on the virtual-time
// engine — and -virtual prints exactly that twin, which is what the
// differential smoke compares.
//
//	puffer-load -scenario stationary -day 1 -addr 127.0.0.1:9977
//	puffer-load -scenario stationary -day 1 -virtual        # the twin
//	puffer-load -day 0 -sessions 12000 -arrival-rate 40 -timescale 1
//
// The deterministic results table goes to stdout; wall-clock performance
// (sessions/sec, decisions, peak concurrency) goes to stderr. Exit status
// is nonzero if any session failed or saw more than one model generation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"puffer/internal/obs"
	"puffer/internal/obscli"
	"puffer/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("puffer-load: ")
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("puffer-load", flag.ContinueOnError)
	var (
		scenarioArg = fs.String("scenario", "stationary", "scenario to drive: a registered name or a spec .json file")
		day         = fs.Int("day", 1, "deployment day of the scenario (must match the daemon)")
		addr        = fs.String("addr", "127.0.0.1:9977", "daemon address")
		virtual     = fs.Bool("virtual", false, "run the deterministic virtual-time twin in-process instead of driving a daemon")
		timescale   = fs.Float64("timescale", 0, "wall seconds per virtual second: pace arrivals and decisions against real time (0 = as fast as the daemon answers)")
		sessions    = fs.Int("sessions", 0, "override the scenario's per-day session count (0 = spec value)")
		arrivalRate = fs.Float64("arrival-rate", 0, "override the arrival process with poisson at this rate in sessions per virtual second (0 = spec value)")
		workers     = fs.Int("workers", 0, "warmup/virtual-engine parallelism (0 = GOMAXPROCS)")
		quiet       = fs.Bool("q", false, "suppress progress logging")
	)
	var obsOpts obscli.Options
	obsOpts.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	spec, err := serve.ResolveSpec(*scenarioArg, *sessions, *arrivalRate)
	if err != nil {
		return err
	}
	plan, err := serve.NewPlan(spec, *day)
	if err != nil {
		return err
	}

	stopObs, err := obsOpts.Start(false, logf)
	if err != nil {
		return err
	}
	defer stopObs()

	// The wire-RTT summary is sourced from client-side spans, so a load run
	// without explicit trace flags still installs a local tracer (every
	// session sampled). Span recording is wall-side only: the results table
	// on stdout stays byte-identical either way.
	if !*virtual && !obsOpts.Tracing() {
		obs.SetEnabled(true)
		obs.SetTracer(obs.NewTracer(1, 0))
	}

	if *virtual {
		logf("warming plan %s for the virtual twin", plan.Hash)
		if err := plan.Warm(*workers, logf); err != nil {
			return err
		}
		stats, fst, err := serve.RunVirtual(plan, *workers)
		if err != nil {
			return err
		}
		serve.WriteStats(os.Stdout, plan.Day, stats)
		logf("virtual twin: %d sessions, peak %d concurrent (virtual time)", plan.Sessions, fst.PeakConcurrent)
		return nil
	}

	logf("driving %s at %s (%d sessions)", plan.Hash, *addr, plan.Sessions)
	res, err := serve.RunLoad(serve.LoadConfig{
		Addr:      *addr,
		Plan:      plan,
		Timescale: *timescale,
		Logf:      logf,
	})
	if err != nil {
		return err
	}
	serve.WriteStats(os.Stdout, plan.Day, res.Stats)
	fmt.Fprintf(os.Stderr,
		"puffer-load: %d sessions (%d failed), %d decisions, peak %d concurrent, %.1fs wall, %.1f sessions/s\n",
		res.Sessions, res.Failed, res.Decisions, res.PeakConcurrent, res.WallSeconds, res.SessionsPerSec())
	if tr := obs.Tracing(); tr != nil {
		if n, qs := obs.TraceQuantiles(tr.Snapshot(), []float64{0.5, 0.99, 0.999}); n > 0 {
			fmt.Fprintf(os.Stderr, "puffer-load: wire RTT p50 %v p99 %v p999 %v over %d traced decisions\n",
				time.Duration(qs[0]), time.Duration(qs[1]), time.Duration(qs[2]), n)
		}
	}
	if res.Failed > 0 || res.ModelViolations > 0 {
		return fmt.Errorf("%d sessions failed, %d model violations", res.Failed, res.ModelViolations)
	}
	return nil
}
