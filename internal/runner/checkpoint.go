package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/wire"
)

// Checkpoint layout: <dir>/manifest.json pins the run parameters that shape
// results; each completed day owns <dir>/day_NNN/ holding
//
//	stats.json    — the day's DayStats (human-readable record)
//	acc.bin       — the day's merged TrialAcc (exact accumulator state)
//	telemetry.bin — the day's Dataset (rebuilds the sliding window)
//	ttp.model     — the model serving the NEXT day (post-nightly rotation)
//
// The .bin files and ttp.model are their types' fixed layouts on
// internal/wire. A day directory is written under a dot-prefixed temp name
// and committed with one wire.Rename, so a kill or a host crash leaves a
// complete day or none. The layouts carry float bits and Go's JSON
// round-trips float64 exactly, which is what makes resumed runs
// byte-identical to uninterrupted ones. A day of gob files (acc.gob) is
// refused on resume: it lacks acc.bin.

const (
	manifestFile  = "manifest.json"
	statsFile     = "stats.json"
	accFile       = "acc.bin"
	telemetryFile = "telemetry.bin"
	modelFile     = "ttp.model"
)

// manifest guards a checkpoint directory against resuming under a
// different experiment. The guard is one hash, the spec's GuardHash (the
// canonical scenario content hash with resume-safe fields like Days
// normalized out), and the canonical spec JSON rides along so a rejected
// resume can say which experiment the checkpoint belongs to. Workers and
// the engine selection are absent from it: they only change scheduling,
// never results.
type manifest struct {
	GuardHash string
	Spec      json.RawMessage `json:",omitempty"`
}

func dayDir(root string, day int) string {
	return filepath.Join(root, fmt.Sprintf("day_%03d", day))
}

// resume loads completed days from the checkpoint directory, rebuilding the
// pooled accumulator, the sliding telemetry window, and the model slot. It
// returns the first day that still needs to run.
func (r *state) resume() (int, error) {
	root := r.cfg.CheckpointDir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return 0, fmt.Errorf("runner: creating checkpoint dir: %w", err)
	}
	if err := r.checkManifest(); err != nil {
		return 0, err
	}
	// Sweep partial writes from a killed checkpoint.
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, fmt.Errorf("runner: reading checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
				return 0, fmt.Errorf("runner: sweeping %s: %w", e.Name(), err)
			}
		}
	}

	day := 0
	for ; day < r.cfg.Days; day++ {
		dir := dayDir(root, day)
		if _, err := os.Stat(dir); err != nil {
			break
		}
		ds, acc, data, model, err := loadDay(dir)
		if err != nil {
			return 0, fmt.Errorf("runner: loading checkpointed day %d: %w", day, err)
		}
		if ds.Day != day {
			return 0, fmt.Errorf("runner: checkpoint %s claims day %d", dir, ds.Day)
		}
		r.slot.Store(model)
		r.finishDay(ds, acc, data)
	}
	return day, nil
}

// checkManifest writes the manifest on first use and rejects resumes whose
// config would silently change the results of already-checkpointed days.
// The comparison is one hash equality; the stored spec only feeds the
// error message.
func (r *state) checkManifest() error {
	path := filepath.Join(r.cfg.CheckpointDir, manifestFile)
	want := manifest{GuardHash: r.cfg.SpecHash, Spec: r.cfg.SpecJSON}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		blob, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return fmt.Errorf("runner: encoding manifest: %w", err)
		}
		if err := wire.WriteFile(path, writeBlob(blob)); err != nil {
			return fmt.Errorf("runner: writing manifest: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("runner: reading manifest: %w", err)
	}
	var got manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("runner: decoding manifest %s: %w", path, err)
	}
	if got.GuardHash == "" {
		return fmt.Errorf("runner: checkpoint dir %s has an unrecognized manifest (no guard hash); use a fresh dir", r.cfg.CheckpointDir)
	}
	if got.GuardHash != want.GuardHash {
		return fmt.Errorf("runner: checkpoint dir %s belongs to a different experiment (guard %s vs %s)%s; "+
			"use a fresh dir, or re-run with the original spec",
			r.cfg.CheckpointDir, shortHash(got.GuardHash), shortHash(want.GuardHash), manifestDiff(got, want))
	}
	return nil
}

// shortHash abbreviates a guard hash for error messages (tolerating
// malformed manifests with short values).
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// manifestDiff renders what the checkpoint pinned versus what the caller
// asked for, for actionable mismatch errors.
func manifestDiff(got, want manifest) string {
	if got.Spec == nil || want.Spec == nil {
		return ""
	}
	return fmt.Sprintf("\ncheckpointed spec:\n%s\nrequested spec:\n%s", got.Spec, want.Spec)
}

// checkpointDay atomically commits one completed day.
func (r *state) checkpointDay(ds DayStats, acc *experiment.TrialAcc, data *core.Dataset) error {
	root := r.cfg.CheckpointDir
	tmp := filepath.Join(root, fmt.Sprintf(".tmp-day_%03d", ds.Day))
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("runner: clearing temp dir: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("runner: creating temp dir: %w", err)
	}
	blob, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding day stats: %w", err)
	}
	files := []struct {
		name string
		blob []byte
	}{
		{statsFile, blob},
		{accFile, acc.AppendTo(nil)},
		{telemetryFile, data.AppendTo(nil)},
		{modelFile, r.slot.Load().AppendTo(nil)},
	}
	for _, f := range files {
		if err := wire.WriteFile(filepath.Join(tmp, f.name), writeBlob(f.blob)); err != nil {
			return fmt.Errorf("runner: writing %s: %w", f.name, err)
		}
	}
	if err := wire.Rename(tmp, dayDir(root, ds.Day)); err != nil {
		return fmt.Errorf("runner: committing day %d: %w", ds.Day, err)
	}
	return nil
}

// writeBlob is the wire.WriteFile body for bytes already encoded.
func writeBlob(blob []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}
}

// loadDay reads one committed day. Every file is required: the nightly
// phase leaves a model in the slot every day, so a day without one is
// damaged, and resuming it under an earlier day's model would be wrong.
func loadDay(dir string) (DayStats, *experiment.TrialAcc, *core.Dataset, *core.TTP, error) {
	var ds DayStats
	var raw [4][]byte
	for i, name := range []string{statsFile, accFile, telemetryFile, modelFile} {
		var err error
		if raw[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			return ds, nil, nil, nil, err
		}
	}
	if err := json.Unmarshal(raw[0], &ds); err != nil {
		return ds, nil, nil, nil, fmt.Errorf("decoding %s: %w", statsFile, err)
	}
	acc, data := new(experiment.TrialAcc), new(core.Dataset)
	if err := wire.Decode(raw[1], acc); err != nil {
		return ds, nil, nil, nil, fmt.Errorf("decoding %s: %w", accFile, err)
	}
	if err := wire.Decode(raw[2], data); err != nil {
		return ds, nil, nil, nil, fmt.Errorf("decoding %s: %w", telemetryFile, err)
	}
	model, err := core.Load(raw[3])
	if err != nil {
		return ds, nil, nil, nil, fmt.Errorf("decoding %s: %w", modelFile, err)
	}
	return ds, acc, data, model, nil
}
