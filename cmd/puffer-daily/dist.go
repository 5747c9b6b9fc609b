package main

import "os"

// distWorkerFlag is the hidden argv that re-enters this binary as a dist
// worker: the coordinator launches `puffer-daily -dist-worker` processes
// that speak the dist protocol on stdin/stdout. Dispatched in main before
// flag parsing — it is a mode, not a flag.
const distWorkerFlag = "-dist-worker"

// distWorkerCommand is the argv the dist engine launches: this very
// binary, re-entered in worker mode — the same self-re-exec pattern the
// sweep executor uses, so coordinator and workers are always the same
// build. Nil if the binary cannot locate itself (dist.NewPool then rejects
// the run for want of a worker command).
func distWorkerCommand() []string {
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	return []string{exe, distWorkerFlag}
}
