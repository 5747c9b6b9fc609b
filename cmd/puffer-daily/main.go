// Command puffer-daily runs the in-situ continual experiment from a
// declarative scenario spec: each day a randomized trial collects telemetry
// from the deployed schemes, and a nightly phase warm-start-retrains Fugu's
// TTP on a sliding window of recent days and rotates the new model in for
// the next day. With retraining on it also runs the frozen-model staleness
// ablation (the paper's "Fugu-Feb" comparison, §4.6) on the same seed and
// prints both side by side, including the per-day frozen-vs-retrained
// stall gap.
//
// Every experiment is a scenario.Spec. The base spec comes from -scenario
// (a registered name or a committed .json file); every other flag is an
// override applied on top, so the historical flag-only invocations still
// work unchanged — they override the default spec:
//
//	puffer-daily -list-scenarios                     # what's on the menu
//	puffer-daily -scenario drift-shift               # run a named scenario
//	puffer-daily -scenario drift-shift -sessions 800 # ...with one override
//	puffer-daily -scenario nightly.json              # run a committed spec
//	puffer-daily -scenario fleet-burst -dump-scenario > burst.json
//	puffer-daily -days 4 -drift shift                # flag-only, as always
//	puffer-daily -engine fleet -arrival-rate 2       # concurrent serving
//	puffer-daily -dist-workers 4                     # worker-process shards
//
// Each override flag is a row of one table (flags.go): the flag name, the
// spec's JSON path it sets through scenario.Spec.Set, its value kind
// (string, number or bool), its usage with units, and an optional second
// field it pins (-dist-workers also sets engine.kind to "dist",
// -arrival-rate sets engine.arrival.process to "poisson"). -h shows the
// units; -dump-scenario shows the resolved defaults.
//
// -dump-scenario prints the effective fully-defaulted spec as canonical
// JSON: commit it, diff it, edit it, and re-run it byte-identically. The
// spec's guard hash pins checkpoint directories (-checkpoint), so resuming
// under a different experiment is rejected with both specs in the error.
// PUFFER_SCENARIO_SCALE (e.g. 0.05) shrinks days/sessions/epochs for smoke
// runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"puffer/internal/experiment"
	"puffer/internal/netem"
	"puffer/internal/obs"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("puffer-daily: ")
	if len(os.Args) > 1 && os.Args[1] == scenario.DistWorkerFlag {
		if err := scenario.ServeDistWorker(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// run is the whole command behind a single error return, so the
// observability teardown (profile stop, snapshot dump, endpoint close)
// always executes — log.Fatal would skip the defers.
func run(args []string) error {
	cli, err := parseCLI(args)
	if err != nil {
		return err
	}

	if cli.list {
		return scenario.WriteListings(os.Stdout, cli.jsonOut)
	}

	spec := cli.spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	if cli.dump {
		os.Stdout.Write(spec.CanonicalJSON())
		return nil
	}
	spec = scenario.ScaleFromEnv(spec)

	logf := log.Printf
	if cli.quiet {
		logf = func(string, ...any) {}
	}

	var events *obs.EventLog
	if cli.obsEvents != "" {
		if events, err = obs.OpenEventLog(cli.obsEvents); err != nil {
			return err
		}
		defer events.Close()
	}
	stopObs, err := cli.obs.Start(events != nil, logf)
	if err != nil {
		return err
	}
	defer stopObs()

	if sched, err := netem.DriftPreset(spec.Drift.Preset); err == nil && !sched.IsZero() {
		logf("drift schedule: %s", sched.Signature())
	}

	out, err := scenario.Run(spec, scenario.RunOptions{
		Workers:          cli.workers,
		CheckpointDir:    cli.checkpoint,
		DistCommand:      scenario.SelfDistCommand(),
		DistShardTimeout: cli.distTimeout,
		Logf:             logf,
		Events:           events,
	})
	if err != nil {
		return err
	}

	printRun(os.Stdout, runLabel(*out.Spec.Daily.Retrain), out.Result)
	if out.Frozen != nil {
		printRun(os.Stdout, runLabel(false), out.Frozen)
		printComparison(os.Stdout, out.Result, out.Frozen, &out.Schedule)
	}
	return nil
}

func runLabel(retrain bool) string {
	if retrain {
		return "daily retraining"
	}
	return "frozen day-0 model"
}

// fuguRow finds the pooled Fugu arm of a run.
func fuguRow(res *runner.Result) (experiment.SchemeStats, bool) {
	for _, r := range res.Total {
		if r.Name == "Fugu" {
			return r, true
		}
	}
	return experiment.SchemeStats{}, false
}

func printRun(w *os.File, label string, res *runner.Result) {
	fmt.Fprintf(w, "\nContinual experiment (%s)\n", label)
	fmt.Fprintf(w, "%-4s %-14s %22s %10s %9s %10s\n",
		"Day", "Arm", "Stalled% [95% CI]", "SSIM dB", "Streams", "Retrain")
	for _, ds := range res.Days {
		night := "-"
		if ds.Retrained {
			night = fmt.Sprintf("%.3f", ds.Loss[0])
		}
		for i, r := range ds.Schemes {
			dayCol, nightCol := "", ""
			if i == 0 {
				dayCol, nightCol = fmt.Sprintf("%d", ds.Day), night
			}
			fmt.Fprintf(w, "%-4s %-14s %7.3f%% [%.3f, %.3f] %7.2f %9d %10s\n",
				dayCol, r.Name, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi,
				r.SSIM.Point, r.Considered, nightCol)
		}
	}
	fmt.Fprintf(w, "Pooled over all days:\n")
	for _, r := range res.Total {
		fmt.Fprintf(w, "     %-14s %7.3f%% [%.3f, %.3f] %7.2f %9d\n",
			r.Name, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi,
			r.SSIM.Point, r.Considered)
	}
}

// printComparison is the §4.6 staleness readout: the Fugu arm under daily
// retraining vs under the frozen day-0 model, on the same seed. Sessions
// are seed-paired, so the per-day gap isolates what the two models decided
// differently; under a drift schedule the table shows it widening as the
// path population moves away from the frozen model's training data.
func printComparison(w *os.File, retrained, frozen *runner.Result, sched *netem.DriftSchedule) {
	a, okA := fuguRow(retrained)
	b, okB := fuguRow(frozen)
	if !okA || !okB {
		fmt.Fprintf(w, "\nstaleness comparison unavailable (missing Fugu arm)\n")
		return
	}
	fmt.Fprintf(w, "\nStaleness ablation (Fugu arm, same seed — sessions are paired)\n")
	fmt.Fprintf(w, "%-4s %12s %12s %9s  %s\n", "Day", "Retrained%", "Frozen%", "Gap pp", "Drift")
	grew, lastGap := true, 0.0
	for _, g := range runner.StalenessGaps(retrained, frozen, "Fugu") {
		if !g.Present {
			fmt.Fprintf(w, "%-4d %12s %12s %9s  (no Fugu arm: bootstrap day)\n", g.Day, "-", "-", "-")
			continue
		}
		if g.Day >= 2 && g.Gap <= lastGap {
			grew = false
		}
		lastGap = g.Gap
		fmt.Fprintf(w, "%-4d %11.3f%% %11.3f%% %+9.3f  %s\n",
			g.Day, 100*g.Retrained, 100*g.Frozen, 100*g.Gap, sched.Describe(g.Day))
	}

	fmt.Fprintf(w, "\nPooled over all days:\n")
	fmt.Fprintf(w, "%-22s %22s %10s\n", "Model", "Stalled% [95% CI]", "SSIM dB")
	fmt.Fprintf(w, "%-22s %7.3f%% [%.3f, %.3f] %7.2f\n", "Daily-retrained",
		100*a.StallRatio.Point, 100*a.StallRatio.Lo, 100*a.StallRatio.Hi, a.SSIM.Point)
	fmt.Fprintf(w, "%-22s %7.3f%% [%.3f, %.3f] %7.2f\n", "Frozen (day 0)",
		100*b.StallRatio.Point, 100*b.StallRatio.Lo, 100*b.StallRatio.Hi, b.SSIM.Point)
	switch {
	case !sched.IsZero() && a.StallRatio.Point < b.StallRatio.Point && grew:
		fmt.Fprintf(w, "Under drift the frozen model falls behind and the gap widens every day: the in-situ retraining claim, visible.\n")
	case !sched.IsZero() && a.StallRatio.Point < b.StallRatio.Point:
		fmt.Fprintf(w, "Under drift the frozen model stalls more overall, though the per-day gap is not yet monotone (more days/sessions sharpen it).\n")
	case a.StallRatio.Point <= b.StallRatio.Point && a.StallRatio.Overlaps(b.StallRatio):
		fmt.Fprintf(w, "Retrained stall ratio <= frozen, CIs overlap: retraining helps or ties (the paper found ties in a stationary deployment).\n")
	case a.StallRatio.Point <= b.StallRatio.Point:
		fmt.Fprintf(w, "Retrained stall ratio <= frozen with non-overlapping CIs: retraining clearly helped.\n")
	default:
		fmt.Fprintf(w, "Frozen model stalled less in this run; with overlapping CIs this is statistical noise (see -sessions).\n")
	}
}
