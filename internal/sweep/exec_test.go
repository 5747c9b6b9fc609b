package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"puffer/internal/results"
	"puffer/internal/scenario"
)

// TestExecuteRunsMissingCellsOnly is the executor's whole contract in one
// arc: a full sweep populates the index; an interrupted sweep (a cell
// fails partway) appends only the contiguous prefix; re-launching runs
// exactly the missing cells; and the resumed index is byte-identical
// (modulo timing/host, which CanonicalBytes excludes) to the
// uninterrupted one. A final launch executes nothing.
func TestExecuteRunsMissingCellsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) scenarios")
	}
	dir := t.TempDir()
	sw := mustParse(t, tinySweep)
	inproc := InProcess(scenario.RunOptions{})

	// Uninterrupted reference run.
	refIndex := filepath.Join(dir, "ref.jsonl")
	rep, err := Execute(sw, ExecConfig{
		Workers:        2,
		IndexPath:      refIndex,
		CheckpointRoot: filepath.Join(dir, "ref-ckpt"),
		Run:            inproc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 4 || rep.Ran != 4 || rep.Indexed != 0 {
		t.Fatalf("reference run: %+v", rep)
	}

	// Interrupted run: the third cell dies. Workers=1 keeps the injected
	// failure at a deterministic position in expansion order.
	killIndex := filepath.Join(dir, "kill.jsonl")
	ckpt := filepath.Join(dir, "kill-ckpt")
	var calls int32
	failing := func(c Cell, checkpointDir string) (*results.Record, error) {
		if atomic.AddInt32(&calls, 1) == 3 {
			return nil, fmt.Errorf("injected kill")
		}
		return inproc(c, checkpointDir)
	}
	rep, err = Execute(sw, ExecConfig{
		Workers:        1,
		IndexPath:      killIndex,
		CheckpointRoot: ckpt,
		Run:            failing,
	})
	if err == nil {
		t.Fatal("interrupted sweep must report the failure")
	}
	if rep.Ran != 2 {
		t.Fatalf("interrupted run appended %d cells, want the contiguous prefix of 2", rep.Ran)
	}
	// Only the runner error is a failure; the cell never attempted after it
	// is skipped, and the four counts partition Total.
	if rep.Failed != 1 || rep.Skipped != 1 {
		t.Fatalf("interrupted run: failed %d skipped %d, want 1 and 1", rep.Failed, rep.Skipped)
	}
	if sum := rep.Ran + rep.Indexed + rep.Skipped + rep.Failed; sum != rep.Total {
		t.Fatalf("interrupted run: counts sum to %d, Total is %d (%+v)", sum, rep.Total, rep)
	}
	var states []string
	for _, c := range rep.Cells {
		states = append(states, c.State)
	}
	if got := strings.Join(states, ","); got != "ran,ran,failed,skipped" {
		t.Fatalf("interrupted run states = %s, want ran,ran,failed,skipped", got)
	}
	ix, err := results.Load(killIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Records) != 2 {
		t.Fatalf("index after kill holds %d records, want 2", len(ix.Records))
	}

	// Re-launch: only the two missing cells execute.
	rep, err = Execute(sw, ExecConfig{
		Workers:        2,
		IndexPath:      killIndex,
		CheckpointRoot: ckpt,
		Run:            inproc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 2 || rep.Indexed != 2 {
		t.Fatalf("resume run: ran %d indexed %d, want 2 and 2", rep.Ran, rep.Indexed)
	}

	ref, err := results.Load(refIndex)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := results.Load(killIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.CanonicalBytes(), resumed.CanonicalBytes()) {
		t.Fatal("resumed index differs from the uninterrupted run (beyond timing/host)")
	}

	// Everything indexed: a further launch executes zero cells.
	ran := int32(0)
	counting := func(c Cell, checkpointDir string) (*results.Record, error) {
		atomic.AddInt32(&ran, 1)
		return inproc(c, checkpointDir)
	}
	rep, err = Execute(sw, ExecConfig{IndexPath: killIndex, Run: counting})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || rep.Ran != 0 || rep.Indexed != 4 {
		t.Fatalf("fully-indexed sweep still executed %d cells (%+v)", ran, rep)
	}

	// Status agrees without running anything.
	st, err := Status(sw, killIndex, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st {
		if c.State != "indexed" {
			t.Fatalf("status: cell %s is %q, want indexed", c.Name, c.State)
		}
	}
}

// TestExecuteSerializesSameGuardCells: an engine axis changes the spec
// hash but not the GuardHash, so its cells land in one group — they run on
// one worker, share one checkpoint directory, and still produce distinct
// index records.
func TestExecuteSerializesSameGuardCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) scenarios")
	}
	const engineSweep = `{
  "name": "eng",
  "base": {
    "daily": {"days": 2, "sessions": 16, "window": 2, "ablation": false},
    "model": {"hidden": [8], "horizon": 2},
    "train": {"epochs": 1},
    "shard_size": 4
  },
  "axes": [{"field": "engine.kind", "values": ["session", "fleet"]}]
}`
	sw := mustParse(t, engineSweep)
	cells, err := sw.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].GuardHash != cells[1].GuardHash {
		t.Fatal("engine axis must not change the GuardHash")
	}
	if cells[0].Hash == cells[1].Hash {
		t.Fatal("engine axis must change the spec hash")
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	var concurrent, peak int32
	guarded := func(c Cell, checkpointDir string) (*results.Record, error) {
		n := atomic.AddInt32(&concurrent, 1)
		defer atomic.AddInt32(&concurrent, -1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		return InProcess(scenario.RunOptions{})(c, checkpointDir)
	}
	rep, err := Execute(sw, ExecConfig{
		Workers:        4,
		IndexPath:      filepath.Join(dir, "index.jsonl"),
		CheckpointRoot: ckpt,
		Run:            guarded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 2 {
		t.Fatalf("ran %d cells, want 2", rep.Ran)
	}
	if peak != 1 {
		t.Fatalf("same-guard cells overlapped (peak concurrency %d)", peak)
	}

	// One checkpoint directory for the whole group.
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var guardDirs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "g-") {
			guardDirs = append(guardDirs, e.Name())
		}
	}
	if len(guardDirs) != 1 {
		t.Fatalf("guard dirs = %v, want exactly one", guardDirs)
	}
}
