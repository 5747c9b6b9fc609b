package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"puffer/internal/scenario"
)

// TestMain gives the test binary the same hidden worker mode the installed
// binary has, so the dist test exercises the production re-exec path: the
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

// TestDistEngineByteIdentical: the same scenario, parsed from CLI flags,
// through the session engine and through worker processes (-dist-workers)
// produces byte-identical day records, pooled totals, and final model
// bytes — with and without a worker killed mid-shard and its shard
// reassigned.
func TestDistEngineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) scenarios with worker subprocesses")
	}
	// 2 days, 4 shards per day, ablation off: the frozen companion would
	// only double the runtime, since the dist engine runs both arms alike.
	args := []string{
		"-days", "2", "-sessions", "16", "-shard", "4",
		"-window", "2", "-epochs", "1", "-seed", "5", "-ablation=false",
	}
	run := func(args []string, opt scenario.RunOptions) []byte {
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
	want := run(args, scenario.RunOptions{})

	dist := append(append([]string{}, args...), "-dist-workers", "3")
	workers := scenario.RunOptions{DistCommand: []string{os.Args[0], scenario.DistWorkerFlag}}
	if !bytes.Equal(run(dist, workers), want) {
		t.Error("dist engine differs from the session engine")
	}
	// Same run with a worker killed mid-shard on day 1: the reassignment
	// must keep the result byte-identical, not merely successful.
	t.Setenv("PUFFER_DIST_FAULT", "kill-worker:day1:shard2")
	if !bytes.Equal(run(dist, workers), want) {
		t.Error("dist engine with a killed-and-reassigned worker differs from the session engine")
	}
}
