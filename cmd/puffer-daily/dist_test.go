package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"puffer/internal/scenario"
)

// TestMain gives the test binary the same hidden worker mode the installed
// binary has, so the dist tests exercise the production re-exec path: the
// coordinator under test launches this binary with -dist-worker and speaks
// the real protocol to it.
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

// testWorkerCommand is the worker argv for tests: this test binary in
// worker mode (the TestMain hook above).
func testWorkerCommand() []string {
	return []string{os.Args[0], scenario.DistWorkerFlag}
}

// distArgs are the shared tiny-scenario flags: 2 days, 4 shards per day,
// ablation off (the frozen companion would only double the runtime without
// adding coverage — the dist engine runs both arms identically).
var distArgs = []string{
	"-days", "2", "-sessions", "16", "-shard", "4",
	"-window", "2", "-epochs", "1", "-seed", "5", "-ablation=false",
}

// runScenario parses CLI args and runs the spec, returning the result
// fingerprint.
func runScenario(t *testing.T, args []string, opt scenario.RunOptions) []byte {
	t.Helper()
	cli, err := parseCLI(args)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Run(cli.spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, out.Result)
}

// TestDistEngineByteIdentical: the same scenario through the session engine
// and through worker processes (-dist-workers) produces byte-identical day
// records, pooled totals, and final model bytes — with and without a
// worker killed mid-shard and its shard reassigned.
func TestDistEngineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) scenarios with worker subprocesses")
	}
	want := runScenario(t, distArgs, scenario.RunOptions{})

	distFlags := append(append([]string{}, distArgs...), "-dist-workers", "3")
	got := runScenario(t, distFlags, scenario.RunOptions{DistCommand: testWorkerCommand()})
	if !bytes.Equal(got, want) {
		t.Error("dist engine differs from the session engine")
	}

	// Same run with a worker killed mid-shard on day 1: the reassignment
	// must keep the result byte-identical, not merely successful.
	t.Setenv("PUFFER_DIST_FAULT", "kill-worker:day1:shard2")
	got = runScenario(t, distFlags, scenario.RunOptions{DistCommand: testWorkerCommand()})
	if !bytes.Equal(got, want) {
		t.Error("dist engine with a killed-and-reassigned worker differs from the session engine")
	}
}

// TestDistCoordinatorKillAndResume: a dist coordinator killed between days
// (simulated as a -days 1 run) resumes from its checkpoint and finishes
// byte-identical to an uninterrupted session-engine run — the checkpoint
// lineage is engine-agnostic because the engine block is outside the
// GuardHash. A worker fault during the resumed day rides along.
func TestDistCoordinatorKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) scenarios with worker subprocesses")
	}
	want := runScenario(t, distArgs, scenario.RunOptions{})

	ckpt := t.TempDir()
	distFlags := append(append([]string{}, distArgs...), "-dist-workers", "3")
	dayOne := append(append([]string{}, distFlags...), "-days", "1")
	runScenario(t, dayOne, scenario.RunOptions{DistCommand: testWorkerCommand(), CheckpointDir: ckpt})

	t.Setenv("PUFFER_DIST_FAULT", "kill-worker:day1:shard1")
	got := runScenario(t, distFlags, scenario.RunOptions{DistCommand: testWorkerCommand(), CheckpointDir: ckpt})
	if !bytes.Equal(got, want) {
		t.Error("resumed dist run differs from the uninterrupted session run")
	}
}

// TestDistWorkersFlagSelectsEngine: -dist-workers alone flips the spec to
// the dist engine, while an explicit -engine wins over it in either order:
// overrides apply in flag.Visit's lexicographic order, not argument order.
func TestDistWorkersFlagSelectsEngine(t *testing.T) {
	cli, err := parseCLI([]string{"-dist-workers", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cli.spec.Engine.Kind != "dist" || cli.spec.Engine.DistWorkers != 4 {
		t.Fatalf("spec engine = %+v, want dist with 4 workers", cli.spec.Engine)
	}
	for _, args := range [][]string{
		{"-dist-workers", "4", "-engine", "session"},
		{"-engine", "session", "-dist-workers", "4"},
	} {
		cli, err = parseCLI(args)
		if err != nil {
			t.Fatal(err)
		}
		if cli.spec.Engine.Kind != "session" || cli.spec.Engine.DistWorkers != 4 {
			t.Fatalf("%v: explicit -engine lost to -dist-workers: %+v", args, cli.spec.Engine)
		}
	}
}
