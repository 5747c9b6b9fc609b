package runner_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"puffer/internal/experiment"
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
	fleetEngine = fleet.DayEngine(nil, 0)
)

// crossEngineFingerprint reduces a Result to the bytes both engines must
// agree on: every day's analyzed schemes, the pooled totals, the final
// model, and the sliding-window telemetry — everything except the
// engine-specific serving record (DayStats.Fleet), which only the fleet
// engine produces.
func crossEngineFingerprint(t *testing.T, res *runner.Result) []byte {
	t.Helper()
	type dayCore struct {
		Day       int
		Retrained bool
		Chunks    int
		Loss      []float64
		Examples  []int
		Schemes   []experiment.SchemeStats
	}
	days := make([]dayCore, len(res.Days))
	for i, d := range res.Days {
		days[i] = dayCore{d.Day, d.Retrained, d.Chunks, d.Loss, d.Examples, d.Schemes}
	}
	blob, err := json.Marshal(struct {
		Days  []dayCore
		Total []experiment.SchemeStats
	}{days, res.Total})
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if res.TTP != nil {
		if err := res.TTP.Save(&model); err != nil {
			t.Fatal(err)
		}
	}
	var data bytes.Buffer
	if res.Data != nil {
		if err := res.Data.Save(&data); err != nil {
			t.Fatal(err)
		}
	}
	blob = append(blob, model.Bytes()...)
	return append(blob, data.Bytes()...)
}

// TestRunnerFleetMatchesSequential: the ISSUE's acceptance bar — the fleet
// engine's multi-day run (bootstrap day + Fugu deploy day, nightly
// retraining in between) produces byte-identical pooled stats, per-day
// stats, model bytes, and telemetry to the sequential engine at the same
// seed, both stationary and under drift.
func TestRunnerFleetMatchesSequential(t *testing.T) {
	for _, drift := range []bool{false, true} {
		name := "stationary"
		if drift {
			name = "drift-shift"
		}
		t.Run(name, func(t *testing.T) {
			mk := func(engine runner.DayEngine) runner.Config {
				cfg := testConfig(23)
				cfg.Engine = engine
				if drift {
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
			flt, err := runner.Run(mk(fleetEngine))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(crossEngineFingerprint(t, seq), crossEngineFingerprint(t, flt)) {
				t.Fatal("fleet engine results differ from sequential engine")
			}
			for _, d := range flt.Days {
				if d.Fleet == nil {
					t.Fatalf("fleet day %d missing serving record", d.Day)
				}
				if d.Fleet.Decisions == 0 {
					t.Fatalf("fleet day %d recorded no decisions", d.Day)
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

// TestRunnerFleetWorkersInvariant: workers 1 vs 8 must be byte-identical
// under the fleet engine, serving record included.
func TestRunnerFleetWorkersInvariant(t *testing.T) {
	mk := func(workers int) runner.Config {
		cfg := testConfig(29)
		cfg.Engine = fleetEngine
		cfg.Workers = workers
		return cfg
	}
	a, err := runner.Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.Run(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprint(t, a), fingerprint(t, b)
	if !bytes.Equal(fa, fb) {
		t.Fatalf("fleet runner differs between 1 and 8 workers (%d vs %d bytes)", len(fa), len(fb))
	}
}

// TestRunnerFleetCheckpointResume: kill-and-resume under -engine fleet must
// replay byte-identically, fleet serving records included.
func TestRunnerFleetCheckpointResume(t *testing.T) {
	mk := func() runner.Config {
		cfg := testConfig(31)
		cfg.Engine = fleet.DayEngine(fleet.PoissonArrivals{Rate: 2}, 0)
		return cfg
	}
	straight := mk()
	straight.Days = 3
	want, err := runner.Run(straight)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := mk()
	first.Days = 2
	first.CheckpointDir = dir
	if _, err := runner.Run(first); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, ".tmp-day_002"), 0o755); err != nil {
		t.Fatal(err)
	}
	second := mk()
	second.Days = 3
	second.CheckpointDir = dir
	got, err := runner.Run(second)
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
