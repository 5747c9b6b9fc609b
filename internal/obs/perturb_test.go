// Differential proof of the zero-perturbation contract: the same
// experiments, metrics off vs metrics fully on (recording, event logs,
// span tracing), produce byte-identical results, models, telemetry,
// checkpoints, and warehouse indexes. External test package so the real
// engines can be driven without an import cycle.
package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/obs"
	"puffer/internal/results"
	"puffer/internal/runner"
	"puffer/internal/scenario"
	"puffer/internal/sweep"
)

// obsOn turns full recording on for one sub-run and restores the gate.
func obsOn(t *testing.T, on bool) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(on)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// eventLog opens a throwaway event log so the "on" runs exercise the full
// emission path, not just the metric gate.
func eventLog(t *testing.T) *obs.EventLog {
	t.Helper()
	l, err := obs.OpenEventLog(filepath.Join(t.TempDir(), "run.events"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// tracingOn installs a sample-everything tracer for one sub-run, so the
// "on" legs exercise the full span-recording path through the engines.
// Returns the tracer so the caller can assert spans actually landed (a
// vacuous differential proves nothing).
func tracingOn(t *testing.T) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer(1, 0)
	obs.SetTracer(tr)
	t.Cleanup(func() { obs.SetTracer(nil) })
	return tr
}

// perturbConfig is a small-but-real continual experiment (nightly
// retraining, tiny nets) on the named engine. Its SpecHash is a constant
// stand-in for a compiled spec's guard hash.
func perturbConfig(seed int64, engine string, days int) runner.Config {
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.WindowDays = 2
	cfg := runner.Config{
		Env:            experiment.DefaultEnv(),
		Days:           days,
		SessionsPerDay: 16,
		ShardSize:      4,
		Seed:           seed,
		Retrain:        true,
		Hidden:         []int{8},
		Horizon:        2,
		Train:          tc,
		SpecHash:       "perturb-test-spec",
	}
	if engine == "fleet" {
		cfg.Engine = fleet.DayEngine(fleet.PoissonArrivals{Rate: 1}, 0.25)
	}
	return cfg
}

// fingerprint reduces a Result to every byte the contract protects: the
// per-day records (fleet serving record included), pooled totals, final
// model, and sliding-window telemetry.
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
	if res.Data != nil {
		blob = res.Data.AppendTo(blob)
	}
	return blob
}

// TestZeroPerturbationEngines: on both execution engines, a run with
// recording, events, and span tracing fully on is byte-identical to the
// same run with everything off.
func TestZeroPerturbationEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) experiments")
	}
	for _, engine := range []string{"session", "fleet"} {
		t.Run(engine, func(t *testing.T) {
			obsOn(t, false)
			off, err := runner.Run(perturbConfig(5, engine, 2))
			if err != nil {
				t.Fatal(err)
			}

			obsOn(t, true)
			tr := tracingOn(t)
			kernelRows := obs.Default.Counter("nn_packed_rows_total")
			kernelCalls := obs.Default.Histogram("nn_packed_forward_ns")
			rows0, calls0 := kernelRows.Value(), kernelCalls.Snapshot().Count
			cfg := perturbConfig(5, engine, 2)
			cfg.Events = eventLog(t)
			on, err := runner.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(fingerprint(t, off), fingerprint(t, on)) {
				t.Fatal("metrics+events+tracing changed the result bytes: zero-perturbation contract violated")
			}
			if tr.Total() == 0 {
				t.Fatal("tracing-on leg recorded no spans: the differential is vacuous")
			}
			// Every engine's forward passes run the packed kernel, so its
			// timer and row counter must have been live in the on leg.
			if kernelRows.Value() == rows0 || kernelCalls.Snapshot().Count == calls0 {
				t.Fatalf("%s engine's on leg never recorded the kernel metrics: the differential does not cover them", engine)
			}
		})
	}
}

// TestZeroPerturbationResume: a fleet kill-and-resume run with
// observability on matches a straight run with it off — result bytes and
// every checkpoint file byte for byte.
func TestZeroPerturbationResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) experiments")
	}
	dir := t.TempDir()

	obsOn(t, false)
	straightCkpt := filepath.Join(dir, "straight")
	cfg := perturbConfig(9, "fleet", 3)
	cfg.CheckpointDir = straightCkpt
	straight, err := runner.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	obsOn(t, true)
	tr := tracingOn(t)
	resumedCkpt := filepath.Join(dir, "resumed")
	var resumed *runner.Result
	for _, days := range []int{2, 3} { // the "kill" after 2 of 3 days, then the relaunch
		cfg = perturbConfig(9, "fleet", days)
		cfg.CheckpointDir = resumedCkpt
		cfg.Events = eventLog(t)
		if resumed, err = runner.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(fingerprint(t, straight), fingerprint(t, resumed)) {
		t.Fatal("obs+tracing-on resumed run differs from the obs-off straight run")
	}
	if tr.Total() == 0 {
		t.Fatal("tracing-on resume recorded no spans: the differential is vacuous")
	}
	want, got := readTree(t, straightCkpt), readTree(t, resumedCkpt)
	if len(want) != len(got) {
		t.Fatalf("checkpoint trees differ in file count: %d vs %d", len(want), len(got))
	}
	for rel, blob := range want {
		if other, ok := got[rel]; !ok || !bytes.Equal(blob, other) {
			t.Fatalf("checkpoint file %s differs between obs-off and obs-on runs (present: %v)", rel, ok)
		}
	}
}

// readTree maps every file under root, by relative path, to its bytes.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestZeroPerturbationTrain: core.Train times its two phases from inside
// (core_train_examples_ns, core_train_fit_ns). Training with recording on
// must leave the same model bytes and the same losses as training with it
// off, and both timers must have fired once per horizon step.
func TestZeroPerturbationTrain(t *testing.T) {
	data, err := experiment.CollectDataset(experiment.DefaultEnv(), runner.BootstrapSchemes(3), 12, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3
	train := func() []byte {
		ttp := core.NewTTP(rand.New(rand.NewSource(4)), horizon, []int{8}, core.DefaultFeatures(), core.KindTransTime)
		res, err := core.Train(ttp, data, core.DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		return append(ttp.AppendTo(nil), fmt.Sprintf("%x %v", res.Loss, res.Examples)...)
	}
	obsOn(t, false)
	off := train()

	obsOn(t, true)
	examples := obs.Default.Histogram("core_train_examples_ns")
	fit := obs.Default.Histogram("core_train_fit_ns")
	examples0, fit0 := examples.Snapshot().Count, fit.Snapshot().Count
	on := train()

	if !bytes.Equal(off, on) {
		t.Fatal("recording changed the trained model or its losses: zero-perturbation contract violated")
	}
	if got := examples.Snapshot().Count - examples0; got != horizon {
		t.Fatalf("core_train_examples_ns took %d observations, want one per horizon step (%d)", got, horizon)
	}
	if got := fit.Snapshot().Count - fit0; got != horizon {
		t.Fatalf("core_train_fit_ns took %d observations, want one per horizon step (%d)", got, horizon)
	}
}

// perturbSweep is the sweep testsuite's 2x2 grid over a tiny base.
const perturbSweep = `{
  "name": "t",
  "base": {
    "daily": {"days": 2, "sessions": 16, "window": 2, "ablation": false},
    "model": {"hidden": [8], "horizon": 2},
    "train": {"epochs": 1},
    "shard_size": 4
  },
  "axes": [
    {"field": "drift.preset", "values": ["none", "shift"]},
    {"field": "seed", "values": [11, 12]}
  ]
}`

// TestZeroPerturbationSweepRelaunch: a sweep killed partway and relaunched
// with observability and event logging on produces an index whose
// CanonicalBytes equal an uninterrupted obs-off sweep's.
func TestZeroPerturbationSweepRelaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) sweeps")
	}
	dir := t.TempDir()
	sw, err := sweep.Parse([]byte(perturbSweep))
	if err != nil {
		t.Fatal(err)
	}
	inproc := sweep.InProcess(scenario.RunOptions{})

	obsOn(t, false)
	refIndex := filepath.Join(dir, "ref.jsonl")
	if _, err := sweep.Execute(sw, sweep.ExecConfig{
		Workers:   2,
		IndexPath: refIndex,
		Run:       inproc,
	}); err != nil {
		t.Fatal(err)
	}

	obsOn(t, true)
	onIndex := filepath.Join(dir, "on.jsonl")
	calls := 0
	killing := func(c sweep.Cell, checkpointDir string) (*results.Record, error) {
		calls++
		if calls == 3 {
			return nil, errInjected
		}
		return inproc(c, checkpointDir)
	}
	rep, err := sweep.Execute(sw, sweep.ExecConfig{
		Workers:        1, // keeps the injected kill at a deterministic cell
		IndexPath:      onIndex,
		CheckpointRoot: filepath.Join(dir, "on-ckpt"),
		Run:            killing,
		Events:         eventLog(t),
	})
	if err == nil {
		t.Fatal("killed sweep must report the failure")
	}
	if rep.Ran != 2 {
		t.Fatalf("killed sweep appended %d cells, want 2", rep.Ran)
	}
	if _, err := sweep.Execute(sw, sweep.ExecConfig{
		Workers:        2,
		IndexPath:      onIndex,
		CheckpointRoot: filepath.Join(dir, "on-ckpt"),
		Run:            inproc,
		Events:         eventLog(t),
	}); err != nil {
		t.Fatal(err)
	}

	ref, err := results.Load(refIndex)
	if err != nil {
		t.Fatal(err)
	}
	on, err := results.Load(onIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.CanonicalBytes(), on.CanonicalBytes()) {
		t.Fatal("obs-on relaunched sweep index differs from the obs-off uninterrupted one")
	}
}

var errInjected = errInjectedType{}

type errInjectedType struct{}

func (errInjectedType) Error() string { return "injected kill" }
