package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"puffer/internal/core"
	"puffer/internal/experiment"
)

// testConfig is a small-but-real continual experiment: enough sessions for
// telemetry to train on, tiny nets so the nightly phase is fast. Its
// SpecHash is a constant stand-in for a compiled spec's guard hash.
func testConfig(seed int64) Config {
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.WindowDays = 2
	return Config{
		Env:            experiment.DefaultEnv(),
		Days:           2,
		SessionsPerDay: 16,
		ShardSize:      4,
		Seed:           seed,
		Retrain:        true,
		Hidden:         []int{8},
		Horizon:        2,
		Train:          tc,
		SpecHash:       "runner-test-spec",
	}
}

// fingerprint reduces a Result to comparable bytes: day records, pooled
// totals, and the final model's serialized form.
func fingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	blob, err := json.Marshal(struct {
		Days  []DayStats
		Total []experiment.SchemeStats
	}{res.Days, res.Total})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTP != nil {
		blob = res.TTP.AppendTo(blob)
	}
	return blob
}

func TestRunnerProducesDaysAndModel(t *testing.T) {
	res, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 2 {
		t.Fatalf("got %d day records, want 2", len(res.Days))
	}
	if !res.Days[0].Retrained || !res.Days[1].Retrained {
		t.Fatal("retraining runner must retrain every night")
	}
	if res.TTP == nil {
		t.Fatal("no final model")
	}
	if res.Data == nil || res.Data.NumChunks() == 0 {
		t.Fatal("no sliding-window telemetry in result")
	}
	if len(res.Total) == 0 {
		t.Fatal("no pooled scheme stats")
	}
	// Day 0 is the classical bootstrap mixture; day 1 deploys Fugu.
	names := map[string]bool{}
	for _, s := range res.Days[1].Schemes {
		names[s.Name] = true
	}
	if !names["Fugu"] {
		t.Fatalf("day 1 has no Fugu arm: %v", res.Days[1].Schemes)
	}
	for _, s := range res.Days[0].Schemes {
		if s.Name == "Fugu" {
			t.Fatal("day 0 cannot deploy Fugu before a model exists")
		}
	}
}

// TestRunnerDeterministicAcrossWorkers: byte-identical aggregates for
// Workers=1 vs Workers=8.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	a := testConfig(7)
	a.Workers = 1
	resA, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	b := testConfig(7)
	b.Workers = 8
	resB, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprint(t, resA), fingerprint(t, resB)
	if !bytes.Equal(fa, fb) {
		t.Fatalf("runner results differ between 1 and 8 workers (%d vs %d bytes)", len(fa), len(fb))
	}
}

// TestRunnerResumeRefusesDamagedDay: a day that lost its model must not
// resume under an earlier day's.
func TestRunnerResumeRefusesDamagedDay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(11)
	cfg.CheckpointDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dayDir(dir, 1), modelFile)); err != nil {
		t.Fatal(err)
	}
	cfg.Days = 3
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), modelFile) {
		t.Fatalf("resume over a day without %s: want an error naming it, got %v", modelFile, err)
	}
}

// TestRunnerResumeRefusesGobTree: a day a gob build checkpointed holds
// acc.gob and telemetry.gob, which nothing here reads. Resuming over it is
// refused with an error naming the file it lacks, and nothing re-runs.
func TestRunnerResumeRefusesGobTree(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(12)
	cfg.Days = 1
	cfg.CheckpointDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	day := dayDir(dir, 0)
	for name, old := range map[string]string{accFile: "acc.gob", telemetryFile: "telemetry.gob"} {
		if err := os.Rename(filepath.Join(day, name), filepath.Join(day, old)); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Days = 2
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), accFile) {
		t.Fatalf("resume over a day of gob files: want an error naming %s, got %v", accFile, err)
	}
	for _, d := range []string{filepath.Join(day, accFile), dayDir(dir, 1)} {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("the refused resume wrote %s (stat: %v)", d, err)
		}
	}
}

// TestRunnerCheckpointNeedsSpecHash: a checkpoint is guarded only by the
// spec's hash, so a Config with a CheckpointDir but no SpecHash is refused
// before any day runs or any manifest is written.
func TestRunnerCheckpointNeedsSpecHash(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(13)
	cfg.CheckpointDir = dir
	cfg.SpecHash = ""
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "scenario.Compile") {
		t.Fatalf("want a rejection naming scenario.Compile, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); !os.IsNotExist(err) {
		t.Fatalf("rejected run left a manifest (stat: %v)", err)
	}
}

// TestRunRefusesUncompiledConfig: the world, the shard size and the horizon
// have one home, the spec, so a Config built without scenario.Compile that
// leaves one unset is refused with an error naming the builder instead of
// run under a guessed default.
func TestRunRefusesUncompiledConfig(t *testing.T) {
	for _, tc := range []struct {
		name  string
		unset func(*Config)
	}{
		{"nil Env.Paths", func(c *Config) { c.Env.Paths = nil }},
		{"no Env.Channels", func(c *Config) { c.Env.Channels = nil }},
		{"zero ShardSize", func(c *Config) { c.ShardSize = 0 }},
		{"zero Horizon", func(c *Config) { c.Horizon = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(14)
			cfg.Days, cfg.SessionsPerDay = 1, 4
			tc.unset(&cfg)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "scenario.Compile") {
				t.Fatalf("want a refusal naming scenario.Compile, got %v", err)
			}
		})
	}
}

// TestRunnerFrozenAblation: with Retrain off, only day 0 trains (the
// bootstrap) and the model serves unchanged thereafter — the "Fugu-Feb"
// staleness arm.
func TestRunnerFrozenAblation(t *testing.T) {
	cfg := testConfig(17)
	cfg.Days = 3
	cfg.Retrain = false
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Days[0].Retrained {
		t.Fatal("day 0 must bootstrap-train even with Retrain off")
	}
	for _, ds := range res.Days[1:] {
		if ds.Retrained {
			t.Fatalf("day %d retrained despite Retrain=false", ds.Day)
		}
	}
	day0, err := os.ReadFile(filepath.Join(dayDir(dir, 0), modelFile))
	if err != nil {
		t.Fatal(err)
	}
	day2, err := os.ReadFile(filepath.Join(dayDir(dir, 2), modelFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(day0, day2) {
		t.Fatal("frozen model changed between day 0 and day 2")
	}
}

// TestRunnerSlidingWindow: result telemetry covers exactly the last W days.
func TestRunnerSlidingWindow(t *testing.T) {
	cfg := testConfig(19)
	cfg.Days = 3
	cfg.Train.WindowDays = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Data.Streams {
		for _, c := range s.Chunks {
			if c.Day != 2 {
				t.Fatalf("window of 1 day retained telemetry from day %d", c.Day)
			}
		}
	}
}
