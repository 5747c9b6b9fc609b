package runner

import (
	"bytes"
	"testing"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/netem"
)

// driftEnv is the deployment environment under a named drift preset.
func driftEnv(t *testing.T, preset string) experiment.Env {
	t.Helper()
	sched, err := netem.DriftPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	env := experiment.DefaultEnv()
	env.Paths = &netem.DriftingSampler{Base: env.Paths, Schedule: sched}
	return env
}

// TestRunnerDriftStalenessSeparates is the acceptance check for the drift
// subsystem: in a drifting deployment the staleness ablation must separate
// monotonically — the frozen day-0 model's stall rate exceeds the
// retrained arm's by day 2, and the gap keeps growing through the final
// day. Runs are seed-paired (identical sessions and paths), so the per-day
// gap isolates the models' decisions.
func TestRunnerDriftStalenessSeparates(t *testing.T) {
	tc := core.DefaultTrainConfig()
	tc.Epochs = 4
	tc.WindowDays = 0
	cfg := Config{
		Env:            driftEnv(t, "shift"),
		Days:           4,
		SessionsPerDay: 128,
		ShardSize:      16,
		Seed:           2,
		Retrain:        true,
		Hidden:         []int{24},
		Horizon:        2,
		Train:          tc,
	}
	retrained, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frozenCfg := cfg
	frozenCfg.Retrain = false
	frozen, err := Run(frozenCfg)
	if err != nil {
		t.Fatal(err)
	}

	gap := func(day int) float64 {
		a, okA := retrained.Days[day].Scheme("Fugu")
		b, okB := frozen.Days[day].Scheme("Fugu")
		if !okA || !okB {
			t.Fatalf("day %d: missing Fugu arm", day)
		}
		return b.StallRatio.Point - a.StallRatio.Point
	}
	// Day 1: both runs serve the identical day-0 model on identical
	// sessions, so the two arms must agree exactly.
	if g := gap(1); g != 0 {
		t.Fatalf("day 1 gap = %+.4f, want exactly 0 (both arms serve the day-0 model)", g)
	}
	// Day 2 on: the frozen model falls behind, and keeps falling.
	g2, g3 := gap(2), gap(3)
	if g2 <= 0 {
		t.Fatalf("day 2 gap = %+.4f, want frozen stalling more than retrained", g2)
	}
	if g3 <= g2 {
		t.Fatalf("gap shrank: day 2 %+.4f vs day 3 %+.4f, want monotone growth", g2, g3)
	}
	t.Logf("frozen-vs-retrained stall gap: day2 %+.2f pp, day3 %+.2f pp", 100*g2, 100*g3)
}

// TestRunnerDriftDeterministicAcrossWorkers: drift must not break the
// worker-count independence of aggregates.
func TestRunnerDriftDeterministicAcrossWorkers(t *testing.T) {
	var res [2]*Result
	for i, workers := range []int{1, 8} {
		cfg := testConfig(23)
		cfg.Env = driftEnv(t, "decay")
		cfg.Workers = workers
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	if !bytes.Equal(fingerprint(t, res[0]), fingerprint(t, res[1])) {
		t.Fatal("drifting runner results differ between 1 and 8 workers")
	}
}

// TestRunnerZeroDriftIdentity: wrapping the sampler with an all-zero
// schedule changes nothing — results are byte-identical to the unwrapped
// run, and the sampler keeps the base family's name (so `-drift none` is
// byte-identical to today and checkpoint-compatible).
func TestRunnerZeroDriftIdentity(t *testing.T) {
	plain := testConfig(37)
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := testConfig(37)
	env := experiment.DefaultEnv()
	env.Paths = &netem.DriftingSampler{Base: env.Paths}
	wrapped.Env = env
	got, err := Run(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, got), fingerprint(t, want)) {
		t.Fatal("zero-schedule DriftingSampler changed results")
	}
	if env.Paths.Name() != experiment.DefaultEnv().Paths.Name() {
		t.Fatalf("zero-schedule sampler renamed the family: %q", env.Paths.Name())
	}
}
