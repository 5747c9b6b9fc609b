package scenario

import (
	"io"
	"os"

	"puffer/internal/core"
	"puffer/internal/dist"
	"puffer/internal/runner"
)

// DistTrialFactory compiles the canonical spec JSON a dist coordinator
// broadcasts in its hello frame into the worker-side day-trial builder.
// The spec bytes are exactly what the coordinator's checkpoint manifest
// records, and the trial comes from the same runner.Config.DayTrial the
// single-process engine uses — both sides derive every seed and scheme
// mixture from identical inputs, which is the determinism argument.
//
// Workers never apply PUFFER_SCENARIO_SCALE: the coordinator scaled (or
// didn't) before canonicalizing, and re-scaling here would silently run a
// different experiment.
func DistTrialFactory(specJSON []byte) (dist.DayFunc, error) {
	s, err := Parse(specJSON)
	if err != nil {
		return nil, err
	}
	cfg, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return func(day int, model *core.TTP) (dist.DayTrial, error) {
		slot := &runner.ModelSlot{}
		if model != nil {
			slot.Store(model)
		}
		return dist.DayTrial{Trial: cfg.DayTrial(day, slot), ShardSize: cfg.ShardSize}, nil
	}, nil
}

// DistWorkerFlag is the hidden first argument that re-enters a CLI as a
// dist worker. It is a mode, not a flag: main dispatches it to
// ServeDistWorker(os.Stdin, os.Stdout) before any flag parsing.
const DistWorkerFlag = "-dist-worker"

// SelfDistCommand is the worker argv a CLI hands RunOptions.DistCommand:
// the running binary re-entered in worker mode, so coordinator and workers
// are always the same build. Nil if the binary cannot locate itself
// (dist.NewPool then rejects the run for want of a worker command).
func SelfDistCommand() []string {
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	return []string{exe, DistWorkerFlag}
}

// ServeDistWorker runs the worker side of the dist protocol on r/w
// (stdin/stdout of a subprocess worker) until the coordinator shuts it
// down.
func ServeDistWorker(r io.Reader, w io.Writer) error {
	return dist.Serve(r, w, DistTrialFactory)
}
