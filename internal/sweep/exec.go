package sweep

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"puffer/internal/obs"
	"puffer/internal/results"
	"puffer/internal/scenario"
)

// CellRunner executes one cell with the given checkpoint directory ("" =
// no checkpointing) and returns its warehouse record. InProcess is the one
// production runner; tests substitute their own.
type CellRunner func(c Cell, checkpointDir string) (*results.Record, error)

// ExecConfig is everything scheduling-side about a sweep execution —
// nothing here changes what any cell computes.
type ExecConfig struct {
	// Workers bounds cell parallelism. Cells sharing a checkpoint
	// GuardHash are serialized onto one worker regardless, so they can
	// share (and resume) one checkpoint directory without racing.
	// Default (0): GOMAXPROCS.
	Workers int
	// IndexPath is the results index the sweep reads (to skip finished
	// cells) and appends to. Required.
	IndexPath string
	// CheckpointRoot holds one checkpoint directory per GuardHash
	// ("g-<hash prefix>"), so a killed cell resumes its completed days
	// and same-guard cells (e.g. an engine axis) replay each other's
	// checkpoints instead of recomputing. Default (""): no
	// checkpointing.
	CheckpointRoot string
	// Run executes one cell. Required.
	Run CellRunner
	// Transform is applied to every cell during expansion, before
	// hashing (e.g. scenario.ScaleFromEnv for smoke runs), so index keys
	// match what actually runs. Default (nil): none.
	Transform func(scenario.Spec) scenario.Spec
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
	// Events, if set, receives the per-cell lifecycle stream
	// (sweep_start, cell_start, cell_done, cell_failed, sweep_done) that
	// `puffer-sweep status -events` summarizes live. Wall-side only —
	// nothing a sweep computes ever reads an event back.
	Events *obs.EventLog
}

// CellStatus is one cell's disposition after Execute (or in Status).
type CellStatus struct {
	Cell
	// State is "indexed" (already in the index — skipped), "ran",
	// "failed" (its runner returned an error), or "skipped" (not appended:
	// a duplicate hash within the sweep, or a cell not attempted or left
	// out of the index after an earlier failure). Status, which runs
	// nothing, reports the cells Execute would run as "missing".
	State string
}

// Report summarizes an execution.
type Report struct {
	Cells []CellStatus
	// Total counts expanded cells; Ran, Indexed, Skipped, and Failed
	// partition them.
	Total, Ran, Indexed, Skipped, Failed int
}

// CheckpointDir is the executor's checkpoint layout: one directory per
// GuardHash under the root.
func CheckpointDir(root, guardHash string) string {
	if root == "" {
		return ""
	}
	return filepath.Join(root, "g-"+shortHash(guardHash))
}

func shortHash(h string) string {
	if len(h) > 16 {
		return h[:16]
	}
	return h
}

// Status expands the sweep and reports each cell's disposition against
// the index without running anything — the "what's done, what's missing"
// view shared by puffer-sweep status and re-launch decisions.
func Status(sw Spec, indexPath string, transform func(scenario.Spec) scenario.Spec) ([]CellStatus, error) {
	cells, err := sw.Expand(transform)
	if err != nil {
		return nil, err
	}
	ix, err := results.Load(indexPath)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	out := make([]CellStatus, 0, len(cells))
	for _, c := range cells {
		st := CellStatus{Cell: c, State: "missing"}
		switch {
		case ix.Has(c.Hash):
			st.State = "indexed"
		case seen[c.Hash]:
			st.State = "skipped"
		}
		seen[c.Hash] = true
		out = append(out, st)
	}
	return out, nil
}

// Execute expands the sweep, skips every cell whose hash the index already
// holds, and runs the rest across the worker pool, appending records to
// the index in expansion order. Re-launching a partially-completed sweep
// therefore executes only the missing cells, and the completed index's
// CanonicalBytes are identical to an uninterrupted run's.
func Execute(sw Spec, ec ExecConfig) (*Report, error) {
	if ec.IndexPath == "" {
		return nil, fmt.Errorf("sweep: ExecConfig.IndexPath is required")
	}
	if ec.Run == nil {
		return nil, fmt.Errorf("sweep: ExecConfig.Run is required")
	}
	logf := ec.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	cells, err := Status(sw, ec.IndexPath, ec.Transform)
	if err != nil {
		return nil, err
	}

	rep := &Report{Cells: cells, Total: len(cells)}
	var todo []Cell
	for i := range cells {
		c := &cells[i]
		switch c.State {
		case "indexed":
			logf("cell %d/%d %s: already indexed (%s)", i+1, len(cells), c.Name, shortHash(c.Hash))
		case "skipped":
			logf("cell %d/%d %s: duplicate of an earlier cell, skipped", i+1, len(cells), c.Name)
		default:
			// Missing: skipped until it is appended as ran or fails.
			todo = append(todo, c.Cell)
			c.State = "skipped"
		}
	}
	rep.tally()
	if len(todo) == 0 {
		logf("all %d cells already indexed; nothing to run", len(cells))
		return rep, nil
	}
	logf("running %d of %d cells (%d already indexed)", len(todo), len(cells), rep.Indexed)
	ec.Events.Emit("sweep_start", map[string]any{
		"cells": len(cells), "todo": len(todo), "indexed": rep.Indexed,
	})

	w, err := results.OpenWriter(ec.IndexPath)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	// Group by GuardHash in first-appearance order: one worker owns a
	// group, so same-guard cells share a checkpoint dir race-free.
	var groups [][]Cell
	groupOf := map[string]int{}
	for _, c := range todo {
		gi, ok := groupOf[c.GuardHash]
		if !ok {
			gi = len(groups)
			groupOf[c.GuardHash] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], c)
	}

	workers := ec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	type done struct {
		cell Cell
		rec  *results.Record
		err  error
	}
	results_ := make(chan done, len(todo))
	groupCh := make(chan []Cell)
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range groupCh {
				for _, c := range group {
					if aborted.Load() {
						results_ <- done{cell: c, err: errAborted}
						continue
					}
					ec.Events.Emit("cell_start", map[string]any{
						"cell": c.Name, "index": c.Index, "hash": c.Hash,
					})
					start := time.Now()
					rec, err := ec.Run(c, CheckpointDir(ec.CheckpointRoot, c.GuardHash))
					if err == nil {
						logf("cell %s: done in %.1fs", c.Name, time.Since(start).Seconds())
						ec.Events.Emit("cell_done", map[string]any{
							"cell": c.Name, "index": c.Index, "hash": c.Hash,
							"wall_s": time.Since(start).Seconds(),
						})
					} else if err != errAborted {
						ec.Events.Emit("cell_failed", map[string]any{
							"cell": c.Name, "index": c.Index, "hash": c.Hash, "error": err.Error(),
						})
					}
					results_ <- done{cell: c, rec: rec, err: err}
				}
			}
		}()
	}
	go func() {
		for _, g := range groups {
			groupCh <- g
		}
		close(groupCh)
	}()

	// Collect and append in expansion order: a record is committed only
	// once every earlier missing cell's record is committed, which is
	// what makes an interrupted-then-resumed index byte-identical to an
	// uninterrupted one. A record that finished out of turn behind a
	// failure is not appended (it stays skipped); its checkpoints make the
	// re-run cheap.
	pending := map[int]*results.Record{}
	var firstErr error
	firstFailed := len(cells)
	next := 0 // index into todo
	for range todo {
		d := <-results_
		if d.err == errAborted {
			continue
		}
		if d.err != nil {
			aborted.Store(true)
			cells[d.cell.Index].State = "failed"
			if d.cell.Index < firstFailed {
				firstFailed, firstErr = d.cell.Index, d.err
			}
			continue
		}
		pending[d.cell.Index] = d.rec
		for next < len(todo) {
			rec, ok := pending[todo[next].Index]
			if !ok {
				break
			}
			if err := w.Append(rec); err != nil {
				wg.Wait()
				rep.tally()
				return rep, err
			}
			cells[todo[next].Index].State = "ran"
			delete(pending, todo[next].Index)
			next++
		}
	}
	wg.Wait()
	rep.tally()
	ec.Events.Emit("sweep_done", map[string]any{
		"ran": rep.Ran, "failed": rep.Failed, "indexed": rep.Indexed,
	})

	if firstErr != nil {
		return rep, fmt.Errorf("sweep: %d cell(s) failed; first failure: %w", rep.Failed, firstErr)
	}
	return rep, nil
}

var errAborted = fmt.Errorf("sweep: aborted after an earlier cell failure")

// tally recounts Ran, Indexed, Skipped and Failed from the cells' states,
// so the four partition Total whenever Execute returns.
func (rep *Report) tally() {
	rep.Ran, rep.Indexed, rep.Skipped, rep.Failed = 0, 0, 0, 0
	for _, c := range rep.Cells {
		switch c.State {
		case "ran":
			rep.Ran++
		case "indexed":
			rep.Indexed++
		case "failed":
			rep.Failed++
		default:
			rep.Skipped++
		}
	}
}

// InProcess returns a CellRunner that runs cells inside this process via
// scenario.Run, so their metrics and spans reach this process's registry
// and tracer. A panicking cell ends the process; the index prefix and the
// per-guard checkpoints let a relaunch resume. opt is the scheduling
// template every cell runs with (Workers, Logf, DistCommand, ...); the
// executor overrides CheckpointDir per cell.
func InProcess(opt scenario.RunOptions) CellRunner {
	return func(c Cell, checkpointDir string) (*results.Record, error) {
		o := opt
		o.CheckpointDir = checkpointDir
		started := time.Now()
		out, err := scenario.Run(c.Spec, o)
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", c.Name, err)
		}
		return results.FromOutcome(out, started, time.Since(started).Seconds())
	}
}
