package dist

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
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
// re-execing this test binary. TestMain dispatches the worker modes (set
// via PUFFER_DIST_TEST_MODE in ExtraEnv) before the test framework
// touches flags.
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
	case "golden-assign":
		if err := sendFrame(bufio.NewWriter(os.Stdout), frameAssign, assignMsg{1, 2, 3}); err != nil {
			fmt.Fprintln(os.Stderr, "golden-assign:", err)
			os.Exit(1)
		}
		os.Exit(0)
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
			_ = sendFrame(bw, frameHelloOK, helloOKMsg{Version: ProtocolVersion})
			_ = sendFrame(bw, frameClaim, nil)
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
	_ = sendFrame(bw, frameHelloOK, helloOKMsg{Version: ProtocolVersion + 7})
	for {
		if _, _, _, err := wire.ReadFrame(br, nil, maxFrame); err != nil {
			os.Exit(0)
		}
	}
}

// testPool builds a pool whose workers are this test binary in the given
// mode.
func testPool(t *testing.T, sp testSpec, mode string, extraEnv []string, workers, maxRestarts int, timeout time.Duration) *Pool {
	t.Helper()
	spec, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(PoolConfig{
		Workers:      workers,
		Command:      []string{os.Args[0]},
		Spec:         spec,
		ShardTimeout: timeout,
		MaxRestarts:  maxRestarts,
		ExtraEnv:     append([]string{"PUFFER_DIST_TEST_MODE=" + mode}, extraEnv...),
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

func accBytes(t *testing.T, acc *experiment.TrialAcc) []byte {
	t.Helper()
	b, err := acc.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func dataBytes(t *testing.T, d *core.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	if !bytes.Equal(accBytes(t, acc), accBytes(t, wantAcc)) {
		t.Errorf("day %d: merged accumulator differs from single-process reference", day)
	}
	if !bytes.Equal(dataBytes(t, data), dataBytes(t, wantData)) {
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
	p := testPool(t, sp, "worker", nil, 3, 0, 30*time.Second)
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
	p := testPool(t, sp, "worker", []string{EnvFault + "=kill-worker:day0:shard2"}, 2, 0, 30*time.Second)
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
	p := testPool(t, sp, "worker", []string{EnvFault + "=hang-worker:day0:shard0"}, 2, 0, 2*time.Second)
	requireDayIdentical(t, p, sp, 0, nil)
}

// TestCrashLoopExhaustsBudget: a fleet that dies on every assignment must
// abort with the restart-budget error, not spin forever.
func TestCrashLoopExhaustsBudget(t *testing.T) {
	sp := testSpec{Sessions: 16, ShardSize: 8, BaseSeed: 3}
	p := testPool(t, sp, "crash-assign", nil, 2, 2, 30*time.Second)
	_, _, err := p.RunDay(0, nil, sp.Sessions, sp.ShardSize)
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("RunDay error = %v, want restart-budget exhaustion", err)
	}
}

// TestVersionMismatchRejected: a worker speaking another protocol version
// must fail the handshake loudly.
func TestVersionMismatchRejected(t *testing.T) {
	sp := testSpec{Sessions: 16, ShardSize: 8, BaseSeed: 3}
	p := testPool(t, sp, "old-version", nil, 1, 1, 30*time.Second)
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

// TestAssignFrameGolden pins the bytes of one assign frame as the parent of
// the internal/wire change wrote them. gob numbers a process's types in
// first-use order, so the frame is written by a fresh process (the
// golden-assign mode above), where assignMsg is the first type encoded.
func TestAssignFrameGolden(t *testing.T) {
	const want = "0000004004347f0301010961737369676e4d736701ff800001030103446179010400010553686172640104000107417474656d7074010400000009ff8001020104010600"
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PUFFER_DIST_TEST_MODE=golden-assign")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(out); got != want {
		t.Fatalf("assign frame bytes changed:\n got %s\nwant %s", got, want)
	}
}
