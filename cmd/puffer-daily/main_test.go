package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/netem"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

// legacyConfig replicates, line for line, how the pre-scenario puffer-daily
// built its runner.Config from flags — the oracle the spec path must match.
// It parses args with the historical flag set and applies the historical
// preset-override semantics (flag.Visit keyed, explicit zeros included).
//
// The engine selection left runner.Config's comparable fields when the
// runner gained its DayEngine seam: the config carries the engine as a
// value (what TestCLIBackCompatRunsByteIdentical runs), and the flags'
// engine triple is returned beside it as the EngineSpec the new path must
// resolve to.
func legacyConfig(t *testing.T, args []string) (runner.Config, scenario.EngineSpec) {
	t.Helper()
	fs := flag.NewFlagSet("legacy", flag.ContinueOnError)
	days := fs.Int("days", 3, "")
	sessions := fs.Int("sessions", 150, "")
	window := fs.Int("window", 14, "")
	workers := fs.Int("workers", 0, "")
	engine := fs.String("engine", "session", "")
	arrivalRate := fs.Float64("arrival-rate", 1, "")
	tick := fs.Float64("tick", 0.25, "")
	shard := fs.Int("shard", 64, "")
	seed := fs.Int64("seed", 1, "")
	retrain := fs.Bool("retrain", true, "")
	fs.Bool("ablation", true, "")
	epochs := fs.Int("epochs", 8, "")
	envName := fs.String("env", "insitu", "")
	drift := fs.String("drift", "none", "")
	dRate := fs.Float64("drift-rate-factor", 0, "")
	dFloor := fs.Float64("drift-rate-floor", 0, "")
	dSigma := fs.Float64("drift-sigma-widen", 0, "")
	dSlow := fs.Float64("drift-slow-share", 0, "")
	dSlowCap := fs.Float64("drift-slow-cap", 0, "")
	dOutage := fs.Float64("drift-outage-rate", 0, "")
	dOutageCap := fs.Float64("drift-outage-cap", 0, "")
	dMix := fs.String("drift-mix", "", "")
	dMixStart := fs.Int("drift-mix-start", 0, "")
	dMixRamp := fs.Int("drift-mix-ramp", 3, "")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("legacy flags: %v", err)
	}

	var env experiment.Env
	switch *envName {
	case "insitu":
		env = experiment.DefaultEnv()
	case "emulation":
		env = experiment.EmulationEnv()
	default:
		t.Fatalf("unknown -env %q", *envName)
	}

	sched, err := netem.DriftPreset(*drift)
	if err != nil {
		t.Fatal(err)
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if given["drift-rate-factor"] {
		sched.RateFactorPerDay = *dRate
	}
	if given["drift-rate-floor"] {
		sched.RateFactorFloor = *dFloor
	}
	if given["drift-sigma-widen"] {
		sched.SigmaWidenPerDay = *dSigma
	}
	if given["drift-slow-share"] {
		sched.SlowSharePerDay = *dSlow
	}
	if given["drift-slow-cap"] {
		sched.SlowShareCap = *dSlowCap
	}
	if given["drift-outage-rate"] {
		sched.OutageRatePerDay = *dOutage / 3600
	}
	if given["drift-outage-cap"] {
		sched.OutageRateCap = *dOutageCap / 3600
	}
	if given["drift-mix"] {
		switch *dMix {
		case "congested":
			sched.MixWith = netem.PufferPaths{MedianRate: 1.2e6, Sigma: 0.5}
		case "fcc":
			sched.MixWith = netem.FCCPaths{}
		case "cs2p":
			sched.MixWith = netem.CS2PPaths{}
		case "none", "":
			sched.MixWith = nil
		default:
			t.Fatalf("unknown -drift-mix %q", *dMix)
		}
		if sched.MixWith != nil {
			sched.MixStartDay = *dMixStart
			sched.MixRampDays = *dMixRamp
		}
	}
	if given["drift-mix-start"] {
		sched.MixStartDay = *dMixStart
	}
	if given["drift-mix-ramp"] {
		sched.MixRampDays = *dMixRamp
	}
	if !sched.IsZero() {
		env.Paths = &netem.DriftingSampler{Base: env.Paths, Schedule: sched}
	}

	engineSpec := scenario.EngineSpec{Kind: *engine, Tick: *tick,
		Arrival: scenario.ArrivalSpec{Process: "poisson", Rate: *arrivalRate}}
	var engineValue runner.DayEngine // nil: the per-session fold
	if *engine == "fleet" {
		engineValue = fleet.DayEngine(fleet.PoissonArrivals{Rate: *arrivalRate}, *tick)
	}

	train := core.DefaultTrainConfig()
	train.Epochs = *epochs
	train.WindowDays = *window
	return runner.Config{
		Env:            env,
		Days:           *days,
		SessionsPerDay: *sessions,
		WindowDays:     *window,
		Workers:        *workers,
		Engine:         engineValue,
		ShardSize:      *shard,
		Seed:           *seed,
		Retrain:        *retrain,
		Train:          train,
	}, engineSpec
}

// compiledConfig runs the new path: CLI args -> spec (base + overrides) ->
// scenario.Compile, plus the resolved engine block scenario.Run would lower.
func compiledConfig(t *testing.T, args []string) (runner.Config, scenario.EngineSpec) {
	t.Helper()
	cli, err := parseCLI(args)
	if err != nil {
		t.Fatalf("parseCLI(%v): %v", args, err)
	}
	cfg, err := scenario.Compile(cli.spec)
	if err != nil {
		t.Fatalf("Compile(%v): %v", args, err)
	}
	cfg.Workers = cli.workers
	return cfg, cli.spec.WithDefaults().Engine
}

// normalize clears the fields where the spec path is deliberately more
// explicit than the legacy path without changing behavior: the spec
// attaches its guard hash and canonical JSON, materializes the default
// hidden sizes and horizon the runner would otherwise fill in, and threads
// the experiment seed into Train.Seed (which the runner re-derives per day
// regardless). Everything else must match exactly.
func normalize(t *testing.T, cfg runner.Config, legacy bool) runner.Config {
	t.Helper()
	if legacy {
		if cfg.Hidden != nil || cfg.Horizon != 0 {
			t.Fatalf("legacy CLI never set Hidden/Horizon, got %v/%d", cfg.Hidden, cfg.Horizon)
		}
	} else {
		if cfg.SpecHash == "" || cfg.SpecJSON == nil {
			t.Fatal("compiled config is missing its spec guard")
		}
		if !reflect.DeepEqual(cfg.Hidden, []int{64, 64}) || cfg.Horizon != 5 {
			t.Fatalf("compiled config materialized Hidden=%v Horizon=%d, want the paper defaults", cfg.Hidden, cfg.Horizon)
		}
	}
	cfg.SpecHash, cfg.SpecJSON = "", nil
	cfg.Hidden, cfg.Horizon = nil, 0
	cfg.Engine = nil // a func value; the engine is compared as its EngineSpec
	cfg.Train.Seed = 0
	return cfg
}

// TestCLIBackCompat proves every pre-redesign flag invocation maps to a
// spec that compiles to the exact runner.Config the old CLI built —
// including raw drift overrides with explicit zeros, the
// newly-introduced-mix ramp defaults, both engines, and both worlds.
func TestCLIBackCompat(t *testing.T) {
	cases := [][]string{
		{},
		{"-days", "2", "-sessions", "12", "-window", "1", "-epochs", "1", "-seed", "5"},
		{"-window", "0"},
		{"-seed", "0"},
		{"-retrain=false"},
		{"-drift", "shift"},
		{"-drift", "decay", "-drift-rate-factor", "0.8"},
		{"-drift", "shift", "-drift-slow-cap", "0", "-drift-outage-rate", "0"},
		{"-drift", "shift", "-drift-outage-cap", "2.5"},
		{"-drift-mix", "congested", "-drift-mix-start", "1"},
		{"-drift", "mix", "-drift-mix", "none"},
		{"-drift", "mix", "-drift-mix", ""},
		{"-drift", "mix", "-drift-mix", "fcc", "-drift-mix-ramp", "0"},
		{"-drift", "none", "-drift-sigma-widen", "0.2", "-drift-slow-share", "0.1"},
		{"-engine", "fleet", "-arrival-rate", "2", "-tick", "0.5"},
		{"-env", "emulation"},
		{"-shard", "16", "-workers", "3"},
	}
	for _, args := range cases {
		t.Run(joinArgs(args), func(t *testing.T) {
			wantCfg, wantEngine := legacyConfig(t, args)
			gotCfg, gotEngine := compiledConfig(t, args)
			want := normalize(t, wantCfg, true)
			got := normalize(t, gotCfg, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec-compiled config differs from legacy config\n got: %+v\nwant: %+v", got, want)
			}
			if gotEngine != wantEngine {
				t.Fatalf("spec engine block differs from the legacy flags\n got: %+v\nwant: %+v", gotEngine, wantEngine)
			}
		})
	}
}

func joinArgs(args []string) string {
	if len(args) == 0 {
		return "defaults"
	}
	s := ""
	for _, a := range args {
		s += a + " "
	}
	return s[:len(s)-1]
}

// fingerprint reduces a runner.Result to comparable bytes (day records,
// pooled totals, final model), mirroring the runner package's test helper.
func fingerprint(t *testing.T, res *runner.Result) []byte {
	t.Helper()
	blob, err := json.Marshal(struct {
		Days  []runner.DayStats
		Total []experiment.SchemeStats
	}{res.Days, res.Total})
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if res.TTP != nil {
		if err := res.TTP.Save(&model); err != nil {
			t.Fatal(err)
		}
	}
	return append(blob, model.Bytes()...)
}

// TestCLIBackCompatRunsByteIdentical executes representative legacy
// invocations both ways — the old path (legacy-built config straight into
// runner.Run, frozen companion by hand) and the new path (spec through
// scenario.Run, ablation included) — and requires byte-identical results,
// frozen arm and all.
func TestCLIBackCompatRunsByteIdentical(t *testing.T) {
	cases := [][]string{
		{"-days", "2", "-sessions", "8", "-epochs", "1", "-window", "2", "-ablation=false"},
		{"-days", "2", "-sessions", "8", "-epochs", "1", "-drift", "shift", "-drift-slow-cap", "0.5"},
		{"-days", "2", "-sessions", "8", "-epochs", "1", "-engine", "fleet", "-arrival-rate", "2", "-ablation=false"},
	}
	for _, args := range cases {
		t.Run(joinArgs(args), func(t *testing.T) {
			legacy, _ := legacyConfig(t, args)
			wantMain, err := runner.Run(legacy)
			if err != nil {
				t.Fatal(err)
			}

			cli, err := parseCLI(args)
			if err != nil {
				t.Fatal(err)
			}
			out, err := scenario.Run(cli.spec, scenario.RunOptions{Workers: cli.workers})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(t, out.Result), fingerprint(t, wantMain)) {
				t.Fatal("scenario.Run result differs from the legacy path")
			}

			ablation := *cli.spec.WithDefaults().Daily.Ablation
			if ablation && legacy.Retrain {
				frozenCfg := legacy
				frozenCfg.Retrain = false
				wantFrozen, err := runner.Run(frozenCfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.Frozen == nil {
					t.Fatal("scenario.Run skipped the ablation companion")
				}
				if !bytes.Equal(fingerprint(t, out.Frozen), fingerprint(t, wantFrozen)) {
					t.Fatal("frozen companion differs from the legacy ablation path")
				}
			} else if out.Frozen != nil {
				t.Fatal("scenario.Run ran an ablation the flags disabled")
			}
		})
	}
}

// TestCommittedNightlySpecMatchesRegistry: the nightly workflow runs from
// the committed scenarios/nightly-drift.json; it must stay in lockstep
// with the registered scenario of the same name (regenerate it with
// `puffer-daily -scenario nightly-drift -dump-scenario`).
func TestCommittedNightlySpecMatchesRegistry(t *testing.T) {
	committed, err := scenario.ParseFile(filepath.Join("..", "..", "scenarios", "nightly-drift.json"))
	if err != nil {
		t.Fatal(err)
	}
	registered, ok := scenario.Lookup("nightly-drift")
	if !ok {
		t.Fatal("nightly-drift is not registered")
	}
	if !bytes.Equal(committed.CanonicalJSON(), registered.CanonicalJSON()) {
		t.Fatalf("committed nightly spec drifted from the registry:\n%s\nvs\n%s",
			committed.CanonicalJSON(), registered.CanonicalJSON())
	}
}

// TestCLIDumpFixedPoint: the spec -dump-scenario emits re-runs identically
// — parsing the dump yields the same canonical JSON, the same hashes, and
// the same compiled config as the original.
func TestCLIDumpFixedPoint(t *testing.T) {
	cli, err := parseCLI([]string{"-scenario", "fleet-burst", "-sessions", "64"})
	if err != nil {
		t.Fatal(err)
	}
	spec := cli.spec.WithDefaults()
	dump := spec.CanonicalJSON()

	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}
	cli2, err := parseCLI([]string{"-scenario", path})
	if err != nil {
		t.Fatal(err)
	}
	respec := cli2.spec
	if !bytes.Equal(respec.CanonicalJSON(), dump) {
		t.Fatal("re-parsed dump is not a canonical fixed point")
	}
	if respec.Hash() != spec.Hash() || respec.GuardHash() != spec.GuardHash() {
		t.Fatal("re-parsed dump changed the spec hashes")
	}
	a, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Compile(respec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("re-parsed dump compiled to a different config")
	}
}
