package dist

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/wire"
)

// The pool tests exercise the real thing: worker processes launched by
// re-execing this test binary, which inherits the test's environment.
// TestMain dispatches the worker modes (set via PUFFER_DIST_TEST_MODE)
// before the test framework touches flags.
func TestMain(m *testing.M) {
	switch os.Getenv("PUFFER_DIST_TEST_MODE") {
	case "":
		os.Exit(m.Run())
	case "worker":
		if err := Serve(os.Stdin, os.Stdout, testFactory); err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "crash-assign":
		crashAssignWorker()
	case "old-version":
		oldVersionWorker()
	default:
		fmt.Fprintln(os.Stderr, "unknown PUFFER_DIST_TEST_MODE")
		os.Exit(2)
	}
}

// testSpec plays the canonical-spec role for these tests: everything the
// worker needs to rebuild the coordinator's trial.
type testSpec struct {
	Sessions  int
	ShardSize int
	BaseSeed  int64
}

// testTrial is the shared trial builder — the coordinator-side reference
// and the worker factory both use it, mirroring how production shares
// runner.Config.DayTrial.
func testTrial(sp testSpec, day int, model *core.TTP) experiment.Config {
	schemes := []experiment.Scheme{
		{Name: "BBA", New: func() abr.Algorithm { return abr.NewBBA() }},
		{Name: "RobustMPC-HM", New: func() abr.Algorithm { return abr.NewRobustMPCHM() }},
	}
	if model != nil {
		schemes[1] = experiment.Scheme{Name: "Fugu", New: func() abr.Algorithm { return core.NewFugu(model) }}
	}
	return experiment.Config{
		Env:      experiment.DefaultEnv(),
		Schemes:  schemes,
		Sessions: sp.Sessions,
		Seed:     sp.BaseSeed + int64(day),
		Day:      day,
	}
}

func testFactory(spec []byte) (DayFunc, error) {
	var sp testSpec
	if err := json.Unmarshal(spec, &sp); err != nil {
		return nil, err
	}
	return func(day int, model *core.TTP) (DayTrial, error) {
		return DayTrial{Trial: testTrial(sp, day, model), ShardSize: sp.ShardSize}, nil
	}, nil
}

// crashAssignWorker handshakes fine, then dies on every assignment — a
// crash-looping fleet that must exhaust the pool's restart budget instead
// of spinning forever.
func crashAssignWorker() {
	br := bufio.NewReader(os.Stdin)
	bw := bufio.NewWriter(os.Stdout)
	for {
		typ, _, _, err := wire.ReadFrame(br, nil, maxFrame)
		if err != nil {
			os.Exit(0)
		}
		switch typ {
		case frameHello:
			_ = sendFrame(bw, frameHelloOK, helloOKMsg{Version: ProtocolVersion}.appendTo(nil))
		case frameAssign:
			os.Exit(4)
		case frameShutdown:
			os.Exit(0)
		}
	}
}

// oldVersionWorker acks the hello with a wrong protocol version.
func oldVersionWorker() {
	br := bufio.NewReader(os.Stdin)
	bw := bufio.NewWriter(os.Stdout)
	if _, _, _, err := wire.ReadFrame(br, nil, maxFrame); err != nil {
		os.Exit(0)
	}
	_ = sendFrame(bw, frameHelloOK, helloOKMsg{Version: ProtocolVersion + 7}.appendTo(nil))
	for {
		if _, _, _, err := wire.ReadFrame(br, nil, maxFrame); err != nil {
			os.Exit(0)
		}
	}
}

// testPool builds a pool whose workers are this test binary in the given
// mode. Workers inherit the test's environment, so a test injects a fault
// with t.Setenv(EnvFault, ...).
func testPool(t *testing.T, sp testSpec, mode string, workers int, timeout time.Duration) *Pool {
	t.Helper()
	t.Setenv("PUFFER_DIST_TEST_MODE", mode)
	spec, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(PoolConfig{
		Workers:      workers,
		Command:      []string{os.Args[0]},
		Spec:         spec,
		ShardTimeout: timeout,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// foldReference computes the single-process canonical aggregate (shard
// folds merged in shard order, one global dataset collector) the pool must
// reproduce byte for byte.
func foldReference(sp testSpec, day int, model *core.TTP) (*experiment.TrialAcc, *core.Dataset) {
	trial := testTrial(sp, day, model)
	col := experiment.NewDatasetCollector()
	trial.Recorder = col
	acc := experiment.NewTrialAcc(experiment.AllPaths)
	for s := 0; s < experiment.NumShards(sp.Sessions, sp.ShardSize); s++ {
		lo, hi := experiment.ShardRange(sp.Sessions, sp.ShardSize, s)
		acc.Merge(trial.FoldShard(lo, hi, experiment.AllPaths))
	}
	return acc, col.Dataset()
}

// requireDayIdentical runs one day on the pool and byte-compares the
// merged accumulator and dataset against the single-process reference.
func requireDayIdentical(t *testing.T, p *Pool, sp testSpec, day int, model *core.TTP) {
	t.Helper()
	acc, data, err := p.RunDay(day, model, sp.Sessions, sp.ShardSize)
	if err != nil {
		t.Fatalf("RunDay(%d): %v", day, err)
	}
	wantAcc, wantData := foldReference(sp, day, model)
	if !bytes.Equal(acc.AppendTo(nil), wantAcc.AppendTo(nil)) {
		t.Errorf("day %d: merged accumulator differs from single-process reference", day)
	}
	if !bytes.Equal(data.AppendTo(nil), wantData.AppendTo(nil)) {
		t.Errorf("day %d: merged dataset differs from single-process reference", day)
	}
}

func testModel() *core.TTP {
	rng := rand.New(rand.NewSource(99))
	return core.NewTTP(rng, 2, []int{4}, core.DefaultFeatures(), core.KindTransTime)
}

// TestPoolMatchesSingleProcess is the core identity contract across two
// days: a bootstrap day (no model broadcast) and a deploy day whose model
// bytes ride the day frame — both byte-identical to the single-process
// shard fold, with workers persisting across the day boundary.
func TestPoolMatchesSingleProcess(t *testing.T) {
	sp := testSpec{Sessions: 40, ShardSize: 8, BaseSeed: 5}
	p := testPool(t, sp, "worker", 3, 30*time.Second)
	requireDayIdentical(t, p, sp, 0, nil)
	requireDayIdentical(t, p, sp, 1, testModel())
}

// TestKillFaultReassigned proves the robustness half of the contract: a
// worker killed mid-shard gets the shard reassigned, and the final merge
// is still byte-identical.
func TestKillFaultReassigned(t *testing.T) {
	sp := testSpec{Sessions: 40, ShardSize: 8, BaseSeed: 7}
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	restarts0 := workerRestarts.Value()
	retries0 := shardRetries.Value()
	t.Setenv(EnvFault, "kill-worker:day0:shard2")
	p := testPool(t, sp, "worker", 2, 30*time.Second)
	requireDayIdentical(t, p, sp, 0, nil)
	if got := workerRestarts.Value() - restarts0; got < 1 {
		t.Errorf("dist_worker_restarts_total advanced by %d, want >= 1", got)
	}
	if got := shardRetries.Value() - retries0; got < 1 {
		t.Errorf("dist_shard_retries_total advanced by %d, want >= 1", got)
	}
}

// TestHangFaultDeadline proves the deadline path: a hung worker trips
// ShardTimeout, is killed, and its shard is reassigned and completes.
func TestHangFaultDeadline(t *testing.T) {
	sp := testSpec{Sessions: 24, ShardSize: 8, BaseSeed: 9}
	t.Setenv(EnvFault, "hang-worker:day0:shard0")
	p := testPool(t, sp, "worker", 2, 2*time.Second)
	requireDayIdentical(t, p, sp, 0, nil)
}

// TestCrashLoopExhaustsBudget: a fleet that dies on every assignment must
// abort with the restart-budget error, not spin forever, and
// dist_workers_live must count the slots still holding a worker after the
// abort, and none after Close.
func TestCrashLoopExhaustsBudget(t *testing.T) {
	sp := testSpec{Sessions: 16, ShardSize: 8, BaseSeed: 3}
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	p := testPool(t, sp, "crash-assign", 2, 30*time.Second)
	_, _, err := p.RunDay(0, nil, sp.Sessions, sp.ShardSize)
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("RunDay error = %v, want restart-budget exhaustion", err)
	}
	live := 0
	for _, w := range p.slots {
		if w != nil {
			live++
		}
	}
	if got := workersLive.Value(); got != float64(live) {
		t.Errorf("dist_workers_live = %v after the abort, %d slots hold a worker", got, live)
	}
	p.Close()
	if got := workersLive.Value(); got != 0 {
		t.Errorf("dist_workers_live = %v after Close, want 0", got)
	}
}

// TestVersionMismatchRejected: a worker speaking another protocol version
// must fail the handshake loudly.
func TestVersionMismatchRejected(t *testing.T) {
	sp := testSpec{Sessions: 16, ShardSize: 8, BaseSeed: 3}
	p := testPool(t, sp, "old-version", 1, 30*time.Second)
	_, _, err := p.RunDay(0, nil, sp.Sessions, sp.ShardSize)
	if err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("RunDay error = %v, want protocol version mismatch", err)
	}
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		in      string
		want    Fault
		wantErr bool
	}{
		{in: "", want: Fault{}},
		{in: "kill-worker:day1:shard2", want: Fault{Kind: FaultKill, Day: 1, Shard: 2}},
		{in: "hang-worker:day0:shard0", want: Fault{Kind: FaultHang, Day: 0, Shard: 0}},
		{in: "kill-worker:day1", wantErr: true},
		{in: "reboot:day1:shard2", wantErr: true},
		{in: "kill-worker:shard2:day1", wantErr: true},
		{in: "kill-worker:day-1:shard2", wantErr: true},
		{in: "kill-worker:dayX:shard2", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseFault(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseFault(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFault(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseFault(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestFaultAttemptGating: faults fire only at attempt 0, so a reassigned
// shard always completes.
func TestFaultAttemptGating(t *testing.T) {
	f := Fault{Kind: FaultKill, Day: 1, Shard: 2}
	if !f.Matches(FaultKill, assignMsg{Day: 1, Shard: 2, Attempt: 0}) {
		t.Error("fault should match its own coordinates at attempt 0")
	}
	if f.Matches(FaultKill, assignMsg{Day: 1, Shard: 2, Attempt: 1}) {
		t.Error("fault must not fire on a reassignment (attempt 1)")
	}
	if f.Matches(FaultHang, assignMsg{Day: 1, Shard: 2, Attempt: 0}) {
		t.Error("kill fault must not match the hang kind")
	}
	if f.Matches(FaultKill, assignMsg{Day: 0, Shard: 2, Attempt: 0}) {
		t.Error("fault must not match another day")
	}
}

// TestAssignFrameGolden pins the bytes of one assign frame: the frame
// header, then day, shard and attempt as big-endian i32s.
func TestAssignFrameGolden(t *testing.T) {
	const want = "0000000d04000000010000000200000003"
	var buf bytes.Buffer
	if err := sendFrame(bufio.NewWriter(&buf), frameAssign, assignMsg{1, 2, 3}.appendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("assign frame bytes changed:\n got %s\nwant %s", got, want)
	}
}

// FuzzDecodePayload: any payload either fails to decode as a message, with
// an error, or decodes to one that re-encodes to the same bytes — for every
// message the protocol has.
func FuzzDecodePayload(f *testing.F) {
	type message interface {
		appendTo(b []byte) []byte
		wire.Decoder
	}
	for _, m := range []message{
		&helloMsg{ProtocolVersion, 1, []byte(`{"Sessions":8}`)}, &helloOKMsg{ProtocolVersion},
		&dayMsg{1, testModel().AppendTo(nil)}, &assignMsg{1, 2, 3},
		&resultMsg{assignMsg{1, 2, 3}, []byte{BlobVersion}}, &errorMsg{"dist: boom"},
	} {
		f.Add(m.appendTo(nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, m := range []message{&helloMsg{}, &helloOKMsg{}, &dayMsg{}, &assignMsg{}, &resultMsg{}, &errorMsg{}} {
			if wire.Decode(b, m) != nil {
				continue
			}
			if got := m.appendTo(nil); !bytes.Equal(got, b) {
				t.Fatalf("%T re-encodes %x as %x", m, b, got)
			}
		}
	})
}
