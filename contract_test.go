package puffer

// The contract matrix: every byte-identity contract the platform makes is
// one row here. A tiny continual experiment runs once as the reference
// (session engine, one worker, observability off, checkpointed), and every
// cell changes one axis — engine, worker count, observability, the point a
// run is killed and resumed — and must reproduce the reference's outcome,
// its checkpoint tree and, on the fleet engine, the plain fleet run's
// serving record. Served days must equal the reference's own day records.
// A new contract is a new row, not a new harness.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/runner"
	"puffer/internal/scenario"
	"puffer/internal/serve"
)

// TestMain gives the test binary the CLIs' hidden worker mode, so the dist
// cells re-exec it as their workers and speak the real protocol to it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == scenario.DistWorkerFlag {
		if err := scenario.ServeDistWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dist worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// contractSpec is the matrix's experiment: three days under drift, so the
// days differ in mixture (bootstrap, then Fugu) and in path population,
// with nightly retraining on a two-day window between them.
const contractSpec = `{
  "daily": {"days": 3, "sessions": 16, "window": 2, "ablation": false},
  "drift": {"preset": "mix"},
  "model": {"hidden": [8], "horizon": 2},
  "train": {"epochs": 1},
  "shard_size": 4,
  "seed": 5
}`

// leg is one invocation inside a cell: the engine it runs on and the days
// it asks for. A cell's legs share one checkpoint dir, so a leg short of
// the spec's days is a kill and the leg after it the resume.
type leg struct {
	engine string
	days   int
}

// obsMode is how much observability a cell turns on.
type obsMode int

const (
	obsOff    obsMode = iota
	obsRecord         // the recording gate
	obsEvents         // recording plus an event log
	obsTrace          // recording plus a tracer sampling every session
)

type contractCell struct {
	name    string
	legs    []leg
	workers int    // shard workers; 0 means 1
	fault   string // PUFFER_DIST_FAULT for every leg
	obs     obsMode
	// moved names a counter the cell must advance: proof that the axis it
	// varies was live, not vacuous.
	moved string
	// stray plants a partial dir for the first day the previous leg did
	// not commit, and a torn manifest temp file, before every later leg;
	// none may survive. On the replay cell that day is never written, so
	// only the resume's sweep can remove it.
	stray bool
	// portable runs every leg with nn's SIMD gates off, on the portable
	// kernel bodies other platforms run: the affine rows, the elementwise
	// training passes, the planner's two passes and Softmax (softmaxGo, with
	// scalar math.Exp, against the reference's vector exponentials).
	portable bool
}

// forcePortable turns nn's SIMD gates off until t ends, or skips t on a host
// without them; nil on a GOARCH that has none (contract_amd64_test.go).
var forcePortable func(t *testing.T)

// cellRun is what a cell produced.
type cellRun struct {
	res  *runner.Result
	tree map[string][]byte
	legs []leg
}

func TestContractMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) experiments")
	}
	spec, err := scenario.Parse([]byte(contractSpec))
	if err != nil {
		t.Fatal(err)
	}
	ref := runCell(t, spec, contractCell{legs: []leg{{"session", 3}}})
	fleet := runCell(t, spec, contractCell{legs: []leg{{"fleet", 3}}})

	t.Run("engine/fleet", func(t *testing.T) {
		compareRuns(t, ref, fleet, fleet)
		for _, d := range fleet.res.Days {
			f := d.Fleet
			if f == nil || f.Decisions == 0 {
				t.Fatalf("day %d: fleet record %+v, want one with decisions", d.Day, f)
			}
			// Day 0 runs the classical mixture, which defers nothing;
			// later days deploy Fugu through the batched service.
			if staged := f.Deferred > 0 && f.Rows > 0; staged != (d.Day > 0) {
				t.Fatalf("day %d: %d deferred decisions over %d rows", d.Day, f.Deferred, f.Rows)
			}
		}
	})

	cells := []contractCell{
		{name: "engine/dist-3", legs: []leg{{"dist", 3}}},
		{name: "engine/dist-kill", legs: []leg{{"dist", 3}}, fault: "kill-worker:day1:shard2",
			obs: obsRecord, moved: "dist_shard_retries_total"},
		{name: "workers/session-8", legs: []leg{{"session", 3}}, workers: 8},
		{name: "workers/fleet-3", legs: []leg{{"fleet", 3}}, workers: 3},
		{name: "workers/fleet-8", legs: []leg{{"fleet", 3}}, workers: 8},
		{name: "obs/events-session", legs: []leg{{"session", 3}}, obs: obsEvents, moved: "nn_packed_rows_total"},
		{name: "obs/events-fleet", legs: []leg{{"fleet", 3}}, obs: obsEvents, moved: "nn_packed_rows_total"},
		{name: "obs/trace-session", legs: []leg{{"session", 3}}, obs: obsTrace, moved: "nn_packed_rows_total"},
		{name: "obs/trace-fleet", legs: []leg{{"fleet", 3}}, obs: obsTrace, moved: "nn_packed_rows_total"},
		{name: "resume/session-1", legs: []leg{{"session", 1}, {"session", 3}}, stray: true},
		{name: "resume/session-2", legs: []leg{{"session", 2}, {"session", 3}}, stray: true},
		{name: "resume/fleet-2-traced", legs: []leg{{"fleet", 2}, {"fleet", 3}}, obs: obsTrace},
		{name: "resume/dist-1-kill", legs: []leg{{"dist", 1}, {"dist", 3}}, fault: "kill-worker:day2:shard1"},
		{name: "resume/session-1-to-fleet", legs: []leg{{"session", 1}, {"fleet", 3}}},
		{name: "resume/session-1-to-dist", legs: []leg{{"session", 1}, {"dist", 3}}},
		{name: "resume/replay", legs: []leg{{"session", 3}, {"session", 3}}, stray: true},
		// The session engine on the portable bodies, Softmax's included.
		{name: "kernel/portable", legs: []leg{{"session", 3}}, portable: true},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			compareRuns(t, ref, fleet, runCell(t, spec, c))
		})
	}

	for day := range 3 {
		t.Run(fmt.Sprintf("served/day%d", day), func(t *testing.T) {
			serveDay(t, spec, day, day == 1, ref.res.Days[day].Schemes)
		})
	}
}

// runCell runs a cell's legs into one fresh checkpoint dir under the
// cell's observability, and asserts its counter moved.
func runCell(t *testing.T, spec scenario.Spec, c contractCell) cellRun {
	t.Helper()
	if c.fault != "" {
		t.Setenv("PUFFER_DIST_FAULT", c.fault)
	}
	if c.portable {
		if forcePortable == nil {
			t.Skip("no SIMD gates on this GOARCH: every cell already runs the portable bodies")
		}
		forcePortable(t)
	}
	opt := scenario.RunOptions{Workers: max(c.workers, 1), CheckpointDir: t.TempDir()}
	var tr *obs.Tracer
	if c.obs != obsOff {
		obs.SetEnabled(true)
		t.Cleanup(func() { obs.SetEnabled(false) })
	}
	switch c.obs {
	case obsEvents:
		opt.Events = eventLog(t)
	case obsTrace:
		tr = tracing(t)
	}
	var moved *obs.Counter
	var before int64
	if c.moved != "" {
		moved = obs.Default.Counter(c.moved)
		before = moved.Value()
	}

	var res *runner.Result
	for i, l := range c.legs {
		if i > 0 && c.stray {
			root := filepath.Join(opt.CheckpointDir, "retrain")
			partial := filepath.Join(root, fmt.Sprintf(".tmp-day_%03d", c.legs[i-1].days))
			if err := os.MkdirAll(partial, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(partial, "partial"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			// A manifest write cut short by a crash, named as
			// wire.WriteFile names its temp files.
			if err := os.WriteFile(filepath.Join(root, ".tmp-manifest.json-x"), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := spec
		s.Daily.Days = l.days
		s.Engine.Kind = l.engine
		opt.DistCommand = nil
		if l.engine == "dist" {
			s.Engine.DistWorkers = 3
			opt.DistCommand = []string{os.Args[0], scenario.DistWorkerFlag}
		}
		out, err := scenario.Run(s, opt)
		if err != nil {
			t.Fatalf("leg %d (%s, %d days): %v", i, l.engine, l.days, err)
		}
		res = out.Result
	}

	if moved != nil && moved.Value() == before {
		t.Fatalf("%s never moved: the cell is vacuous", c.moved)
	}
	if tr != nil && tr.Total() == 0 {
		t.Fatal("tracing recorded no spans: the cell is vacuous")
	}
	return cellRun{res: res, tree: checkpointTree(t, opt.CheckpointDir), legs: c.legs}
}

// compareRuns requires got to reproduce the reference's outcome and
// checkpoint tree, and each day's serving record to be the plain fleet
// run's on a day the fleet engine ran, and absent on any other.
func compareRuns(t *testing.T, ref, fleet, got cellRun) {
	t.Helper()
	if !bytes.Equal(outcome(t, got.res), outcome(t, ref.res)) {
		t.Error("outcome differs from the reference")
	}
	files := maps.Clone(ref.tree)
	maps.Copy(files, got.tree)
	for _, name := range slices.Sorted(maps.Keys(files)) {
		want, inRef := ref.tree[name]
		have, inGot := got.tree[name]
		switch {
		case !inGot:
			t.Errorf("checkpoint file %s missing", name)
		case !inRef:
			t.Errorf("checkpoint file %s is not in the reference", name)
		case !bytes.Equal(have, want):
			t.Errorf("checkpoint file %s differs from the reference", name)
		}
	}
	for d, ds := range got.res.Days {
		var want *runner.FleetDayStats
		if dayEngine(got.legs, d) == "fleet" {
			want = fleet.res.Days[d].Fleet
		}
		if !jsonEqual(t, ds.Fleet, want) {
			t.Errorf("day %d: fleet record %+v, want %+v", d, ds.Fleet, want)
		}
	}
}

// dayEngine is the engine of the first leg that ran day d; later legs
// load it from the checkpoint.
func dayEngine(legs []leg, d int) string {
	for _, l := range legs {
		if d < l.days {
			return l.engine
		}
	}
	return ""
}

// outcome is every byte of a result the contract protects except the
// serving record: the day records, pooled totals, final model and
// sliding-window telemetry.
func outcome(t *testing.T, res *runner.Result) []byte {
	t.Helper()
	days := slices.Clone(res.Days)
	for i := range days {
		days[i].Fleet = nil
	}
	blob, err := json.Marshal(struct {
		Days  []runner.DayStats
		Total []experiment.SchemeStats
	}{days, res.Total})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTP != nil {
		blob = res.TTP.AppendTo(blob)
	}
	return res.Data.AppendTo(blob)
}

// checkpointTree reads every file under root, dropping the two fields a
// cell may change: the manifest's spec (it records the engine block) and
// each day's serving record.
func checkpointTree(t *testing.T, root string) map[string][]byte {
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
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch d.Name() {
		case "manifest.json":
			blob = dropField(t, blob, "Spec")
		case "stats.json":
			blob = dropField(t, blob, "Fleet")
		}
		files[rel] = blob
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func dropField(t *testing.T, blob []byte, field string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, field)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// serveDay serves one day of the spec over loopback and requires the
// per-scheme stats the daily loop recorded for that day.
func serveDay(t *testing.T, spec scenario.Spec, day int, traced bool, want []experiment.SchemeStats) {
	plan, err := serve.NewPlan(spec, day)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Warm(1, nil); err != nil {
		t.Fatal(err)
	}
	var tr *obs.Tracer
	if traced {
		obs.SetEnabled(true)
		t.Cleanup(func() { obs.SetEnabled(false) })
		tr = tracing(t)
	}
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
	res, err := serve.RunLoad(serve.LoadConfig{Addr: ln.Addr().String(), Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.ModelViolations != 0 {
		t.Fatalf("%d sessions failed, %d model violations", res.Failed, res.ModelViolations)
	}
	if !jsonEqual(t, res.Stats, want) {
		t.Fatal("served stats differ from the daily loop's record of the day")
	}
	if tr == nil {
		return
	}
	// Both halves must have traced: the client's wire_rtt roots and the
	// server's request spans, joined by nonzero trace ids.
	count := map[string]int{}
	for _, s := range tr.Snapshot() {
		if s.Trace == 0 {
			t.Fatalf("span %s recorded with zero trace id", s.Name)
		}
		count[s.Name]++
	}
	for _, name := range []string{"wire_rtt", "client_send", "server_request", "queue_wait", "reply", "kernel"} {
		if count[name] == 0 {
			t.Fatalf("traced serve recorded no %q spans (got %v)", name, count)
		}
	}
}

func tracing(t *testing.T) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer(1, 0)
	obs.SetTracer(tr)
	t.Cleanup(func() { obs.SetTracer(nil) })
	return tr
}

func eventLog(t *testing.T) *obs.EventLog {
	t.Helper()
	l, err := obs.OpenEventLog(filepath.Join(t.TempDir(), "run.events"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
