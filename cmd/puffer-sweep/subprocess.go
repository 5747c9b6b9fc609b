package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"puffer/internal/results"
	"puffer/internal/scenario"
	"puffer/internal/sweep"
)

// runCellFlag is the hidden subcommand the executor uses to re-exec this
// binary once per cell: the parent writes the cell's fully-scaled spec to
// a file, the child runs it and writes the results record to -out.
const runCellFlag = "-run-cell"

// subprocessRunner returns a CellRunner that executes each cell in a fresh
// puffer-sweep process. Isolation per cell (a crash takes down one cell,
// not the sweep) and real multi-process parallelism; the record still
// comes back through a file, not stdout, so cell logging stays visible.
func subprocessRunner(cellWorkers int, quiet bool) sweep.CellRunner {
	exe, exeErr := os.Executable()
	return func(c sweep.Cell, checkpointDir string) (*results.Record, error) {
		if exeErr != nil {
			return nil, fmt.Errorf("locating own binary for -run-cell: %w", exeErr)
		}
		work, err := os.MkdirTemp("", "puffer-cell-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(work)

		specPath := filepath.Join(work, "spec.json")
		if err := os.WriteFile(specPath, c.Spec.CanonicalJSON(), 0o644); err != nil {
			return nil, err
		}
		outPath := filepath.Join(work, "record.json")

		cellArgs := []string{runCellFlag,
			"-spec", specPath,
			"-out", outPath,
			"-checkpoint", checkpointDir,
			"-workers", fmt.Sprint(cellWorkers),
		}
		if quiet {
			cellArgs = append(cellArgs, "-q")
		}
		cmd := exec.Command(exe, cellArgs...)
		// The parent already applied PUFFER_SCENARIO_SCALE during
		// expansion; the child runs the spec file verbatim, so the
		// variable must not scale it a second time.
		cmd.Env = envWithout("PUFFER_SCENARIO_SCALE")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("cell %s subprocess: %w", c.Name, err)
		}

		blob, err := os.ReadFile(outPath)
		if err != nil {
			return nil, fmt.Errorf("cell %s: reading record: %w", c.Name, err)
		}
		var rec results.Record
		if err := json.Unmarshal(blob, &rec); err != nil {
			return nil, fmt.Errorf("cell %s: decoding record: %w", c.Name, err)
		}
		if rec.Hash != c.Hash {
			return nil, fmt.Errorf("cell %s: subprocess returned hash %s, want %s", c.Name, rec.Hash, c.Hash)
		}
		return &rec, nil
	}
}

func envWithout(name string) []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, name+"=") {
			env = append(env, kv)
		}
	}
	return env
}

// cmdRunCell is the child side: run one spec file, write one record.
func cmdRunCell(args []string) error {
	fs := flag.NewFlagSet("puffer-sweep -run-cell", flag.ContinueOnError)
	specPath := fs.String("spec", "", "scenario spec .json to run")
	outPath := fs.String("out", "", "file to write the results record to")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory for this cell")
	workers := fs.Int("workers", 0, "shard workers (0 = GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" || *outPath == "" {
		return fmt.Errorf("-run-cell: -spec and -out are required")
	}
	spec, err := scenario.ParseFile(*specPath)
	if err != nil {
		return err
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}
	started := time.Now()
	out, err := scenario.Run(spec, scenario.RunOptions{
		Workers:       *workers,
		CheckpointDir: *checkpoint,
		DistCommand:   scenario.SelfDistCommand(),
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	rec, err := results.FromOutcome(out, started, time.Since(started).Seconds())
	if err != nil {
		return err
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(*outPath, blob, 0o644)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
