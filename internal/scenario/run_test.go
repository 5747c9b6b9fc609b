package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"puffer/internal/experiment"
	"puffer/internal/runner"
)

// testSpec is a small-but-real continual experiment (tiny nets, few
// sessions) mirroring the runner package's test config.
func testSpec(seed int64, opts ...Option) Spec {
	base := []Option{
		Days(2), Sessions(16), Window(2), Shard(4), Seed(seed),
		Hidden(8), Horizon(2), Epochs(1), Ablation(false),
	}
	return New(append(base, opts...)...)
}

// fingerprint reduces a Result to comparable bytes.
func fingerprint(t *testing.T, res *runner.Result) []byte {
	t.Helper()
	blob, err := json.Marshal(struct {
		Days  []runner.DayStats
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

// TestScenarioResumeWithSpecHashManifest: the acceptance-criteria resume
// path — a scenario run killed after day 1 resumes under the spec-hash
// manifest and finishes byte-identical to an uninterrupted run, including
// a same-guard engine switch (the engines are byte-identical, so the
// guard deliberately permits it).
func TestScenarioResumeWithSpecHashManifest(t *testing.T) {
	straight, err := Run(testSpec(11, Days(3)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if _, err := Run(testSpec(11, Days(2)), RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}

	// The manifest must be the spec-hash format, spec JSON included.
	raw, err := os.ReadFile(filepath.Join(dir, "retrain", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		GuardHash string
		Spec      json.RawMessage
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.GuardHash != testSpec(11).GuardHash() {
		t.Fatalf("manifest guard %q is not the spec's guard hash", m.GuardHash)
	}
	respec, err := Parse(m.Spec)
	if err != nil {
		t.Fatalf("manifest spec does not re-parse: %v", err)
	}
	if respec.GuardHash() != m.GuardHash {
		t.Fatal("manifest spec does not hash to the manifest guard")
	}

	// Resume with one more day — and on the other engine, which the
	// guard permits because engines are byte-identical. Only the
	// engine-specific serving record (DayStats.Fleet) may differ, so it
	// is cleared before comparing, as the runner's cross-engine tests do.
	resumed, err := Run(testSpec(11, Days(3), Engine("fleet"), ArrivalRate(2)),
		RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stripFleet := func(res *runner.Result) {
		for i := range res.Days {
			res.Days[i].Fleet = nil
		}
	}
	stripFleet(resumed.Result)
	stripFleet(straight.Result)
	if !bytes.Equal(fingerprint(t, resumed.Result), fingerprint(t, straight.Result)) {
		t.Fatal("kill-and-resume scenario differs from uninterrupted run")
	}
}

// TestScenarioResumeRejectsDifferentExperiment: a changed result-shaping
// field is refused, and the error carries both specs.
func TestScenarioResumeRejectsDifferentExperiment(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(testSpec(13, Days(1)), RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(testSpec(13, Days(2), Sessions(24)), RunOptions{CheckpointDir: dir})
	if err == nil {
		t.Fatal("resume with different sessions must be rejected")
	}
	if !strings.Contains(err.Error(), "different experiment") || !strings.Contains(err.Error(), "\"sessions\": 24") {
		t.Fatalf("mismatch error should explain and show the specs, got: %v", err)
	}
	_, err = Run(testSpec(13, Days(2), Drift("decay")), RunOptions{CheckpointDir: dir})
	if err == nil {
		t.Fatal("resume with a drift schedule must be rejected")
	}
}

// TestScenarioGuardlessManifestRejected: a manifest that carries no guard
// hash (here the pre-scenario field-list format) cannot be verified against
// a spec, so the checkpoint dir is refused rather than resumed.
func TestScenarioGuardlessManifestRejected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "retrain")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{
  "EnvPaths": "puffer",
  "EnvClip": false,
  "SessionsPerDay": 16,
  "WindowDays": 2,
  "ShardSize": 4,
  "Seed": 11,
  "Retrain": true,
  "Hidden": [8],
  "Horizon": 2,
  "Train": {"Epochs": 1, "BatchSize": 64, "LR": 0.001, "Seed": 1, "WindowDays": 2, "RecencyBase": 0.9}
}`)
	if err := os.WriteFile(filepath.Join(ckpt, "manifest.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(testSpec(11), RunOptions{CheckpointDir: dir})
	if err == nil {
		t.Fatal("a manifest without a guard hash must be rejected")
	}
	if !strings.Contains(err.Error(), "no guard hash") || !strings.Contains(err.Error(), "fresh dir") {
		t.Fatalf("rejection should name the missing guard hash and the way out, got: %v", err)
	}
}

// TestScenarioAblationPairing: the frozen companion runs on the same seed
// with its own guard, checkpointed beside the retrained arm in a directory
// named by the companion's GuardHash (so companions of different specs
// sharing one root never collide).
func TestScenarioAblationPairing(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(17, Days(2), Ablation(true))
	out, err := Run(spec, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if out.Frozen == nil {
		t.Fatal("ablation did not run")
	}
	companion := out.Spec
	companion.Daily.Retrain = ptr(false)
	frozenDir := "frozen-" + companion.GuardHash()[:12]
	for _, sub := range []string{"retrain", frozenDir} {
		if _, err := os.Stat(filepath.Join(dir, sub, "manifest.json")); err != nil {
			t.Fatalf("missing %s checkpoint: %v", sub, err)
		}
	}
	// Day 1 is served by the identical day-0 model in both arms on
	// paired sessions, so the gap is exactly zero.
	gaps := runner.StalenessGaps(out.Result, out.Frozen, "Fugu")
	if len(gaps) != 2 || !gaps[1].Present || gaps[1].Gap != 0 {
		t.Fatalf("paired day-1 gap should be exactly 0, got %+v", gaps)
	}
}
