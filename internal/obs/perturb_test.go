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
	"net"
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
	"puffer/internal/serve"
	"puffer/internal/sweep"
)

// obsOn turns full recording on for one sub-run and restores the gate.
func obsOn(t *testing.T, on bool) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(on)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// tracingOn installs a sample-everything tracer for one sub-run, so the
// "on" legs exercise the full span-recording path through the engines,
// not just metrics and events. Returns the tracer so the caller can
// assert spans actually landed (a vacuous differential proves nothing).
func tracingOn(t *testing.T) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer(1, 0)
	obs.SetTracer(tr)
	t.Cleanup(func() { obs.SetTracer(nil) })
	return tr
}

// engines maps the test's engine names to runner.DayEngine values (nil is
// the runner's default per-session fold).
var engines = map[string]runner.DayEngine{"session": nil, "fleet": fleet.DayEngine(nil, 0)}

// perturbConfig is the runner testsuite's small-but-real continual
// experiment (two days, nightly retraining, tiny nets). Its SpecHash is a
// constant stand-in for a compiled spec's guard hash.
func perturbConfig(t *testing.T, seed int64, engine string, days int) runner.Config {
	t.Helper()
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	return runner.Config{
		Env:            experiment.DefaultEnv(),
		Days:           days,
		SessionsPerDay: 16,
		WindowDays:     2,
		ShardSize:      4,
		Seed:           seed,
		Engine:         engines[engine],
		Retrain:        true,
		Hidden:         []int{8},
		Horizon:        2,
		Train:          tc,
		SpecHash:       "perturb-test-spec",
	}
}

// fingerprint reduces a Result to every byte the contract protects: the
// per-day records (including the fleet serving record), pooled totals,
// final model, and sliding-window telemetry.
func fingerprint(t *testing.T, res *runner.Result) []byte {
	t.Helper()
	blob, err := json.Marshal(struct {
		Days  []runner.DayStats
		Total []experiment.SchemeStats
	}{res.Days, res.Total})
	if err != nil {
		t.Fatal(err)
	}
	var model, data bytes.Buffer
	if res.TTP != nil {
		if err := res.TTP.Save(&model); err != nil {
			t.Fatal(err)
		}
	}
	if res.Data != nil {
		if err := res.Data.Save(&data); err != nil {
			t.Fatal(err)
		}
	}
	return append(append(blob, model.Bytes()...), data.Bytes()...)
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
			off, err := runner.Run(perturbConfig(t, 5, engine, 2))
			if err != nil {
				t.Fatal(err)
			}

			obsOn(t, true)
			tr := tracingOn(t)
			kernelRows := obs.Default.Counter("nn_packed_rows_total")
			kernelCalls := obs.Default.Histogram("nn_packed_forward_ns")
			rows0, calls0 := kernelRows.Value(), kernelCalls.Snapshot().Count
			cfg := perturbConfig(t, 5, engine, 2)
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
		var model bytes.Buffer
		if err := ttp.Save(&model); err != nil {
			t.Fatal(err)
		}
		return append(model.Bytes(), fmt.Sprintf("%x %v", res.Loss, res.Examples)...)
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

// TestZeroPerturbationResume: a kill-and-resume run with observability on
// matches a straight run with it off — result bytes and every checkpoint
// file byte-for-byte.
func TestZeroPerturbationResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) experiments")
	}
	dir := t.TempDir()

	obsOn(t, false)
	straightCkpt := filepath.Join(dir, "straight")
	cfg := perturbConfig(t, 9, "fleet", 3)
	cfg.CheckpointDir = straightCkpt
	straight, err := runner.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	obsOn(t, true)
	tr := tracingOn(t)
	resumedCkpt := filepath.Join(dir, "resumed")
	cfg = perturbConfig(t, 9, "fleet", 2) // the "kill": only 2 of 3 days
	cfg.CheckpointDir = resumedCkpt
	cfg.Events = eventLog(t)
	if _, err := runner.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = perturbConfig(t, 9, "fleet", 3) // the relaunch resumes day 2
	cfg.CheckpointDir = resumedCkpt
	cfg.Events = eventLog(t)
	resumed, err := runner.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(fingerprint(t, straight), fingerprint(t, resumed)) {
		t.Fatal("obs+tracing-on resumed run differs from the obs-off straight run")
	}
	if tr.Total() == 0 {
		t.Fatal("tracing-on resume recorded no spans: the differential is vacuous")
	}
	compareTrees(t, straightCkpt, resumedCkpt)
}

// TestZeroPerturbationServeTraced: the wall-clock serving differential
// with tracing fully on. A day served over loopback — every session
// sampled, spans recorded on both the client and server halves, trace
// ids riding the wire — produces the exact per-scheme stats of the
// virtual-time twin run with observability entirely off.
func TestZeroPerturbationServeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (tiny) serving day")
	}
	var spec scenario.Spec
	spec.Daily.Days = 2
	spec.Daily.Sessions = 24
	spec.Train.Epochs = 1
	seed := int64(7)
	spec.Seed = &seed
	spec.ShardSize = 8

	obsOn(t, false)
	plan, err := serve.NewPlan(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Warm(0, t.Logf); err != nil {
		t.Fatal(err)
	}
	want, _, err := serve.RunVirtual(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	obsOn(t, true)
	tr := tracingOn(t)
	srv, err := serve.NewServer(serve.Config{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	res, err := serve.RunLoad(serve.LoadConfig{
		Addr: ln.Addr().String(),
		Plan: plan,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.ModelViolations != 0 {
		t.Fatalf("traced load run: %d failed, %d model violations", res.Failed, res.ModelViolations)
	}
	gotBytes, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("traced serve stats differ from obs-off virtual twin:\noff: %s\non:  %s", wantBytes, gotBytes)
	}

	// The differential only counts if both halves actually traced: the
	// client's wire_rtt roots and the server's request spans must be in
	// the ring, joined by nonzero trace ids.
	spans := tr.Snapshot()
	count := map[string]int{}
	for _, s := range spans {
		if s.Trace == 0 {
			t.Fatalf("span %s recorded with zero trace id", s.Name)
		}
		count[s.Name]++
	}
	for _, name := range []string{"wire_rtt", "client_send", "server_request", "queue_wait", "reply", "kernel"} {
		if count[name] == 0 {
			t.Fatalf("traced serve run recorded no %q spans (got %v)", name, count)
		}
	}
}

// compareTrees asserts two checkpoint directories hold identical files
// with identical bytes.
func compareTrees(t *testing.T, a, b string) {
	t.Helper()
	list := func(root string) map[string][]byte {
		files := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[rel] = blob
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	fa, fb := list(a), list(b)
	if len(fa) != len(fb) {
		t.Fatalf("checkpoint trees differ in file count: %d vs %d", len(fa), len(fb))
	}
	for rel, blob := range fa {
		other, ok := fb[rel]
		if !ok {
			t.Fatalf("checkpoint file %s missing from the obs-on tree", rel)
		}
		if !bytes.Equal(blob, other) {
			t.Fatalf("checkpoint file %s differs between obs-off and obs-on runs", rel)
		}
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
