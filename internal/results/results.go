package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/runner"
	"puffer/internal/scenario"
	"puffer/internal/wire"
)

// Warehouse metrics (write-only; see the obs package contract). Append
// latency is dominated by the per-record fsync, which is the durability
// cost worth watching on slow disks.
var (
	appendsTotal = obs.Default.Counter("results_appends_total")
	appendNS     = obs.Default.Histogram("results_append_ns")
)

// Record is one finished experiment in the warehouse: the spec that ran
// (canonically, so the record is self-describing and re-runnable), the
// deterministic outcome, and the run's nondeterministic circumstances
// (timing, host) kept apart so identity comparisons can exclude them.
type Record struct {
	// Hash is the scenario spec's content hash — the index key. Two
	// records with equal hashes describe the same experiment and, because
	// runs are deterministic, the same outcome.
	Hash string `json:"hash"`
	// GuardHash is the spec's checkpoint-guard projection, recorded so
	// queries can group cells that share a checkpoint lineage.
	GuardHash string `json:"guard_hash"`
	// Name is the cell's documentation-only label (sweep cells carry
	// "<sweep>/<field>=<value>,...").
	Name string `json:"name,omitempty"`
	// Spec is the fully-defaulted canonical spec JSON, compacted to keep
	// the index line-oriented.
	Spec json.RawMessage `json:"spec"`

	Outcome Outcome `json:"outcome"`

	// Timing and Host describe the run that produced the record, not the
	// experiment itself: they differ across machines and across resumed
	// runs, so CanonicalBytes zeroes both.
	Timing Timing `json:"timing"`
	Host   Host   `json:"host"`
}

// Outcome is the deterministic part of a record: everything here is
// byte-identical across machines, worker counts, engines, and
// kill-and-resume at the same spec.
type Outcome struct {
	// Total pools every day's streams per scheme.
	Total []experiment.SchemeStats `json:"total"`
	// Days are the per-day records (trial aggregate + nightly phase, and
	// the fleet serving record when that engine ran).
	Days []runner.DayStats `json:"days"`
	// FrozenTotal and FrozenDays are the staleness-ablation companion
	// (same seed, no nightly retraining), present when the spec ran it.
	FrozenTotal []experiment.SchemeStats `json:"frozen_total,omitempty"`
	FrozenDays  []runner.DayStats        `json:"frozen_days,omitempty"`
	// Gaps aligns the two arms day by day for the Fugu arm — the paper's
	// §4.6 staleness readout, precomputed so figures and queries read it
	// without re-deriving.
	Gaps []runner.GapRow `json:"gaps,omitempty"`
}

// Timing is the wall-clock record of the run that produced the record.
// Resumed cells replay checkpointed days, so their wall time measures the
// replay, not the original computation.
type Timing struct {
	WallSeconds float64 `json:"wall_seconds"`
	StartedAt   string  `json:"started_at,omitempty"`
}

// Host identifies where the record was produced.
type Host struct {
	Hostname  string `json:"hostname,omitempty"`
	OS        string `json:"os,omitempty"`
	Arch      string `json:"arch,omitempty"`
	CPUs      int    `json:"cpus,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

// CurrentHost describes the running machine.
func CurrentHost() Host {
	name, _ := os.Hostname()
	return Host{
		Hostname:  name,
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// FromOutcome builds the record for a finished scenario run. The spec is
// re-canonicalized (and compacted) from the outcome's fully-defaulted
// spec, so the record's hash always matches its embedded spec.
func FromOutcome(out *scenario.Outcome, started time.Time, wallSeconds float64) (*Record, error) {
	spec := out.Spec
	var compact bytes.Buffer
	if err := json.Compact(&compact, spec.CanonicalJSON()); err != nil {
		return nil, fmt.Errorf("results: compacting spec: %w", err)
	}
	rec := &Record{
		Hash:      spec.Hash(),
		GuardHash: spec.GuardHash(),
		Name:      spec.Name,
		Spec:      json.RawMessage(compact.Bytes()),
		Outcome: Outcome{
			Total: out.Result.Total,
			Days:  out.Result.Days,
		},
		Timing: Timing{
			WallSeconds: wallSeconds,
			StartedAt:   started.UTC().Format(time.RFC3339),
		},
		Host: CurrentHost(),
	}
	if out.Frozen != nil {
		rec.Outcome.FrozenTotal = out.Frozen.Total
		rec.Outcome.FrozenDays = out.Frozen.Days
		rec.Outcome.Gaps = runner.StalenessGaps(out.Result, out.Frozen, "Fugu")
	}
	return rec, nil
}

// Index is a loaded results index: the records in file order plus a
// by-hash lookup. Later records with a duplicate hash are kept in Records
// (the file is append-only history) but Get answers with the first, so
// re-appending a cell never changes query results.
type Index struct {
	Records []*Record

	byHash map[string]*Record
}

// Load reads a results index. A missing file is an empty index (the state
// every sweep starts from), not an error. A torn trailing line — a kill
// mid-append — is ignored; OpenWriter repairs it before the next append.
func Load(path string) (*Index, error) {
	ix := &Index{byHash: map[string]*Record{}}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ix, nil
	}
	if err != nil {
		return nil, fmt.Errorf("results: opening index: %w", err)
	}
	defer f.Close()

	err = wire.ScanLines(f, path, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		ix.add(&rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return ix, nil
}

func (ix *Index) add(rec *Record) {
	ix.Records = append(ix.Records, rec)
	if _, dup := ix.byHash[rec.Hash]; !dup {
		ix.byHash[rec.Hash] = rec
	}
}

// Has reports whether the index holds a record for the spec hash.
func (ix *Index) Has(hash string) bool { _, ok := ix.byHash[hash]; return ok }

// Get returns the (first) record for the spec hash.
func (ix *Index) Get(hash string) (*Record, bool) {
	rec, ok := ix.byHash[hash]
	return rec, ok
}

// CanonicalBytes renders the index's deterministic content: every record
// in file order with the run-circumstance fields zeroed — Timing, Host,
// and the per-day fleet serving records (the checkpoint guard permits
// resuming a cell on a different engine, and a replayed day keeps the
// serving record of whichever engine originally ran it, so Fleet describes
// scheduling history, not the experiment). Two runs of the same sweep —
// including an interrupted run resumed to completion — produce identical
// CanonicalBytes even though the raw files differ in those fields.
func (ix *Index) CanonicalBytes() []byte {
	var buf bytes.Buffer
	for _, rec := range ix.Records {
		c := *rec
		c.Timing = Timing{}
		c.Host = Host{}
		c.Outcome.Days = stripServing(c.Outcome.Days)
		c.Outcome.FrozenDays = stripServing(c.Outcome.FrozenDays)
		blob, err := json.Marshal(&c)
		if err != nil {
			// Records are plain data; marshaling cannot fail.
			panic(fmt.Sprintf("results: canonical marshal: %v", err))
		}
		buf.Write(blob)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// stripServing returns a copy of the day rows with the fleet serving
// record cleared. Never mutates the input: records may be shared with a
// live Index.
func stripServing(days []runner.DayStats) []runner.DayStats {
	if len(days) == 0 {
		return days
	}
	out := make([]runner.DayStats, len(days))
	copy(out, days)
	for i := range out {
		out[i].Fleet = nil
	}
	return out
}

// Writer appends records to an index file. The contract is single-writer:
// one process (the sweep executor, or a figure run filling missing cells)
// owns the file for the duration; each Append commits exactly one line in
// one write, so a kill between appends leaves a well-formed file and a
// kill mid-append leaves a torn tail that the next OpenWriter truncates.
type Writer struct {
	f *os.File
}

// OpenWriter opens (creating if needed) an index for appending, first
// repairing a torn trailing line left by a kill mid-append.
func OpenWriter(path string) (*Writer, error) {
	f, err := wire.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("results: opening index for append: %w", err)
	}
	return &Writer{f: f}, nil
}

// Append commits one record as a single line + newline in one write call,
// then syncs, so a committed record survives the process dying immediately
// after.
func (w *Writer) Append(rec *Record) error {
	t0 := obs.Now()
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("results: encoding record: %w", err)
	}
	line := append(blob, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("results: appending record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("results: syncing index: %w", err)
	}
	appendsTotal.Inc()
	appendNS.ObserveSince(t0)
	return nil
}

// Close releases the index file.
func (w *Writer) Close() error { return w.f.Close() }
