package runner_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"puffer/internal/fleet"
	"puffer/internal/netem"
	"puffer/internal/runner"
)

// An external test package: fleet implements runner.DayEngine, so it
// imports runner, and the in-package suite cannot import it back. The
// helpers shared with that suite come through export_test.go.
var (
	testConfig  = runner.TestConfig
	fingerprint = runner.Fingerprint
)

// crossEngineFingerprint is fingerprint less the engine-specific serving
// record (DayStats.Fleet), which only the fleet engine produces, plus the
// sliding-window telemetry.
func crossEngineFingerprint(t *testing.T, res *runner.Result) []byte {
	t.Helper()
	stripped := *res
	stripped.Days = slices.Clone(res.Days)
	for i := range stripped.Days {
		stripped.Days[i].Fleet = nil
	}
	fp := fingerprint(t, &stripped)
	if res.Data != nil {
		fp = res.Data.AppendTo(fp)
	}
	return fp
}

// TestRunnerFleetMatchesSequential: the fleet engine's multi-day run
// (bootstrap day, nightly retraining, Fugu deploy day) produces
// byte-identical day records, pooled stats, model bytes and telemetry to
// the session engine at the same seed, both stationary and under drift.
func TestRunnerFleetMatchesSequential(t *testing.T) {
	for _, name := range []string{"stationary", "drift-shift"} {
		t.Run(name, func(t *testing.T) {
			mk := func(engine runner.DayEngine) runner.Config {
				cfg := testConfig(23)
				cfg.Engine = engine
				if name == "drift-shift" {
					sched, err := netem.DriftPreset("shift")
					if err != nil {
						t.Fatal(err)
					}
					cfg.Env.Paths = &netem.DriftingSampler{Base: cfg.Env.Paths, Schedule: sched}
				}
				return cfg
			}
			seq, err := runner.Run(mk(nil))
			if err != nil {
				t.Fatal(err)
			}
			flt, err := runner.Run(mk(fleet.DayEngine(fleet.PoissonArrivals{Rate: 1}, 0.25)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(crossEngineFingerprint(t, seq), crossEngineFingerprint(t, flt)) {
				t.Fatal("fleet engine results differ from sequential engine")
			}
			for _, d := range flt.Days {
				if d.Fleet == nil || d.Fleet.Decisions == 0 {
					t.Fatalf("fleet day %d has no serving record with decisions: %+v", d.Day, d.Fleet)
				}
			}
			// Day 1 deploys Fugu, so its inference must have gone through
			// the batched service.
			if flt.Days[1].Fleet.Deferred == 0 || flt.Days[1].Fleet.Rows == 0 {
				t.Fatalf("fleet deploy day staged no batched inference: %+v", flt.Days[1].Fleet)
			}
		})
	}
}

// TestRunnerFleetCheckpointResume: kill-and-resume under the fleet engine
// must replay byte-identically, fleet serving records included.
func TestRunnerFleetCheckpointResume(t *testing.T) {
	mk := func(days int, dir string) runner.Config {
		cfg := testConfig(31)
		cfg.Engine = fleet.DayEngine(fleet.PoissonArrivals{Rate: 2}, 0.25)
		cfg.Days = days
		cfg.CheckpointDir = dir
		return cfg
	}
	want, err := runner.Run(mk(3, ""))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := runner.Run(mk(2, dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, ".tmp-day_002"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(mk(3, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, got), fingerprint(t, want)) {
		t.Fatal("fleet kill-and-resume differs from uninterrupted fleet run")
	}
	// The checkpointed day's stats must round-trip the serving record.
	raw, err := os.ReadFile(filepath.Join(runner.DayDir(dir, 1), runner.StatsFile))
	if err != nil {
		t.Fatal(err)
	}
	var ds runner.DayStats
	if err := json.Unmarshal(raw, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.Fleet == nil || ds.Fleet.PeakConcurrent == 0 {
		t.Fatalf("checkpointed day lost its fleet record: %+v", ds.Fleet)
	}
}
