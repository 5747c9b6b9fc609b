package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"puffer/internal/wire"
)

// StartCPUProfile begins a CPU profile into path and returns the function
// that stops it and closes the file — the -cpuprofile hook CLIs defer
// around a run. Profiling is sampling-only and wall-side: it never changes
// what a run computes (the zero-perturbation contract's differential
// smokes run with it exercised via the pprof endpoint).
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: creating cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: starting cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("obs: closing cpu profile: %w", err)
		}
		return nil
	}, nil
}

// WriteHeapProfile writes a heap profile to path after a GC, so the
// profile reflects live objects — the -memprofile hook CLIs call at exit.
func WriteHeapProfile(path string) error {
	runtime.GC()
	return wire.WriteFile(path, pprof.WriteHeapProfile)
}
