package main

import (
	"flag"
	"fmt"
	"time"

	"puffer/internal/experiment"
	"puffer/internal/obscli"
	"puffer/internal/scenario"
)

// cliConfig is everything the command line resolves to: the effective
// scenario spec (base spec plus flag overrides) and the scheduling-side
// options that never enter a spec.
type cliConfig struct {
	spec scenario.Spec

	list        bool
	jsonOut     bool
	dump        bool
	workers     int
	checkpoint  string
	distTimeout time.Duration
	quiet       bool
	obs         obscli.Options
	obsEvents   string
}

// parseCLI maps the command line onto a scenario spec. The base spec comes
// from -scenario (a registered name or a JSON file; default: the all-unset
// spec, whose WithDefaults resolution is exactly the historical flag
// defaults). Every individual flag is an override: it applies only when
// given on the command line — flag.Visit, not flag defaults — so explicit
// zeros override too, and anything not mentioned rides on the spec.
func parseCLI(args []string) (*cliConfig, error) {
	cli := &cliConfig{}
	fs := flag.NewFlagSet("puffer-daily", flag.ContinueOnError)

	scenarioArg := fs.String("scenario", "", "base scenario: a registered name (see -list-scenarios) or a spec .json file (default: the built-in defaults)")
	fs.BoolVar(&cli.list, "list-scenarios", false, "list the registered scenarios and exit")
	fs.BoolVar(&cli.jsonOut, "json", false, "with -list-scenarios: emit JSON (name, notes, spec hash, guard hash)")
	fs.BoolVar(&cli.dump, "dump-scenario", false, "print the effective fully-defaulted spec as canonical JSON and exit (commit it, edit it, re-run it)")

	days := fs.Int("days", scenario.DefaultDays, "override: deployment days to simulate (count)")
	sessions := fs.Int("sessions", scenario.DefaultSessions, "override: randomized-trial size per day (sessions)")
	window := fs.Int("window", scenario.DefaultWindow, "override: sliding retraining window (days; 0 = all days so far)")
	fs.IntVar(&cli.workers, "workers", 0, "parallel shard workers (goroutines; 0 = GOMAXPROCS); never changes results")
	engine := fs.String("engine", "session", "override: execution engine — session, fleet, or dist; results are byte-identical")
	distWorkers := fs.Int("dist-workers", 0, "override: dist engine worker-process count (0 = GOMAXPROCS; selects the dist engine); never changes results")
	fs.DurationVar(&cli.distTimeout, "dist-timeout", 0, "dist engine per-shard hang deadline (duration; 0 = none); never changes results")
	arrivalRate := fs.Float64("arrival-rate", scenario.DefaultRate, "override: fleet engine Poisson arrival intensity (sessions per virtual second; selects the poisson process)")
	tick := fs.Float64("tick", scenario.DefaultTick, "override: fleet engine inference-batching tick (virtual seconds; never changes results)")
	shard := fs.Int("shard", experiment.DefaultShardSize, "override: sessions per aggregation shard (sessions)")
	seed := fs.Int64("seed", scenario.DefaultSeed, "override: experiment seed (any int64)")
	fs.StringVar(&cli.checkpoint, "checkpoint", "", "checkpoint directory (path; empty = no checkpointing)")
	retrain := fs.Bool("retrain", true, "override: retrain the TTP nightly (false = frozen day-0 model)")
	ablation := fs.Bool("ablation", true, "override: with retraining, also run the frozen-model staleness ablation")
	epochs := fs.Int("epochs", scenario.DefaultEpochs, "override: nightly training epochs (count)")
	envName := fs.String("env", "insitu", "override: environment world, insitu or emulation")
	fs.BoolVar(&cli.quiet, "q", false, "suppress progress logging")
	cli.obs.Register(fs)
	fs.StringVar(&cli.obsEvents, "obs-events", "", "append the structured run-progress event stream (JSONL) to this file (path; empty = off)")

	drift := fs.String("drift", "none", "override: nonstationarity preset — none, decay, shift, or mix")
	dRate := fs.Float64("drift-rate-factor", 0, "override: daily capacity factor (ratio/day; e.g. 0.9 = -10%/day; unset = preset)")
	dFloor := fs.Float64("drift-rate-floor", 0, "override: floor on the compounded capacity factor (ratio; unset = preset)")
	dSigma := fs.Float64("drift-sigma-widen", 0, "override: extra session-spread log-std-dev added per day (nats/day; unset = preset)")
	dSlow := fs.Float64("drift-slow-share", 0, "override: extra slow-path share added per day (fraction/day; unset = preset)")
	dSlowCap := fs.Float64("drift-slow-cap", 0, "override: cap on the extra slow-path share (fraction; unset = preset)")
	dOutage := fs.Float64("drift-outage-rate", 0, "override: extra deep outages added per day (outages/hour/day; unset = preset)")
	dOutageCap := fs.Float64("drift-outage-cap", 0, "override: cap on the ramped outage rate (outages/hour; 0 = uncapped; unset = preset)")
	dMix := fs.String("drift-mix", "", "override: migrate the population toward this family — congested, fcc, cs2p, or none (unset = preset)")
	dMixStart := fs.Int("drift-mix-start", 0, "override: first day of the mix ramp (day index; unset = preset)")
	dMixRamp := fs.Int("drift-mix-ramp", 3, "override: days for the mix ramp to reach 100% (days; <= 0 = step; unset = preset)")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	spec, err := scenario.Resolve(*scenarioArg)
	if err != nil {
		return nil, err
	}

	// Flag overrides apply only when the flag was actually given.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "days":
			spec.Daily.Days = *days
		case "sessions":
			spec.Daily.Sessions = *sessions
		case "window":
			spec.Daily.Window = ptrOf(*window)
		case "engine":
			spec.Engine.Kind = *engine
		case "dist-workers":
			spec.Engine.Kind = "dist"
			spec.Engine.DistWorkers = *distWorkers
		case "arrival-rate":
			spec.Engine.Arrival.Process = "poisson"
			spec.Engine.Arrival.Rate = *arrivalRate
		case "tick":
			spec.Engine.Tick = *tick
		case "shard":
			spec.ShardSize = *shard
		case "seed":
			spec.Seed = ptrOf(*seed)
		case "retrain":
			spec.Daily.Retrain = ptrOf(*retrain)
		case "ablation":
			spec.Daily.Ablation = ptrOf(*ablation)
		case "epochs":
			spec.Train.Epochs = *epochs
		case "env":
			spec.Env.World = *envName
		case "drift":
			spec.Drift.Preset = *drift
		case "drift-rate-factor":
			spec.Drift.RateFactorPerDay = ptrOf(*dRate)
		case "drift-rate-floor":
			spec.Drift.RateFactorFloor = ptrOf(*dFloor)
		case "drift-sigma-widen":
			spec.Drift.SigmaWidenPerDay = ptrOf(*dSigma)
		case "drift-slow-share":
			spec.Drift.SlowSharePerDay = ptrOf(*dSlow)
		case "drift-slow-cap":
			spec.Drift.SlowShareCap = ptrOf(*dSlowCap)
		case "drift-outage-rate":
			spec.Drift.OutagesPerHour = ptrOf(*dOutage)
		case "drift-outage-cap":
			spec.Drift.OutageCapPerHour = ptrOf(*dOutageCap)
		case "drift-mix":
			spec.Drift.Mix = ptrOf(*dMix)
		case "drift-mix-start":
			spec.Drift.MixStartDay = ptrOf(*dMixStart)
		case "drift-mix-ramp":
			spec.Drift.MixRampDays = ptrOf(*dMixRamp)
		}
	})
	cli.spec = spec
	return cli, nil
}

func ptrOf[T any](v T) *T { return &v }
