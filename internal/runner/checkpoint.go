package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"puffer/internal/core"
	"puffer/internal/experiment"
)

// Checkpoint layout: <dir>/manifest.json pins the run parameters that shape
// results; each completed day owns <dir>/day_NNN/ holding
//
//	stats.json    — the day's DayStats (human-readable record)
//	acc.gob       — the day's merged TrialAcc (exact accumulator state)
//	telemetry.gob — the day's Dataset (rebuilds the sliding window)
//	ttp.model     — the model serving the NEXT day (post-nightly rotation)
//
// A day directory is written under a dot-prefixed temp name and committed
// with a single rename, so a kill mid-checkpoint leaves either a complete
// day or no day. Gob and Go's JSON both round-trip float64 exactly, which is
// what makes resumed runs byte-identical to uninterrupted ones.

const (
	manifestFile  = "manifest.json"
	statsFile     = "stats.json"
	accFile       = "acc.gob"
	telemetryFile = "telemetry.gob"
	modelFile     = "ttp.model"
)

// gobWarmOnce backs gobTypeWarmup.
var gobWarmOnce sync.Once

// gobTypeWarmup pins encoding/gob's process-global type-id assignment for
// every type the checkpoint files contain, in the order a plain
// single-process run would first encode them. Gob allocates wire type ids
// globally in first-use order and embeds those ids in every stream, so any
// engine that speaks gob before the first checkpoint write (the dist
// coordinator's worker protocol does) would otherwise shift the ids inside
// acc.gob / telemetry.gob / ttp.model and break checkpoint byte-identity
// across engines. Run calls this before anything else touches gob.
func gobTypeWarmup() {
	gobWarmOnce.Do(func() {
		_ = gob.NewEncoder(io.Discard).Encode(experiment.NewTrialAcc(experiment.AllPaths))
		_ = (&core.Dataset{}).Save(io.Discard)
		rng := rand.New(rand.NewSource(0))
		_ = core.NewTTP(rng, 1, nil, core.DefaultFeatures(), core.KindTransTime).Save(io.Discard)
	})
}

// manifest guards a checkpoint directory against resuming under a
// different experiment. The guard is one hash: for scenario-compiled runs
// it is the spec's GuardHash (the canonical scenario content hash with
// resume-safe fields like Days normalized out), and the canonical spec
// JSON rides along so a rejected resume can say which experiment the
// checkpoint belongs to. Runs built from a raw Config get a fallback hash
// over guardParams. Workers and the engine selection are absent from both:
// they only change scheduling, never results.
type manifest struct {
	GuardHash string
	// Spec is the canonical scenario spec (scenario-compiled runs only).
	Spec json.RawMessage `json:",omitempty"`
	// Params is the runner-level guard view (direct-Config runs only).
	Params *guardParams `json:",omitempty"`
}

// guardParams is the fallback guard for Configs constructed without a
// scenario spec: the result-shaping fields, with the environment pinned by
// its observable identity (path-family name — which embeds any drift
// signature — plus clip replay).
type guardParams struct {
	EnvPaths       string
	EnvClip        bool
	SessionsPerDay int
	WindowDays     int
	ShardSize      int
	Seed           int64
	Retrain        bool
	Hidden         []int
	Horizon        int
	Train          core.TrainConfig
}

func (cfg *Config) guardParams() guardParams {
	p := guardParams{
		EnvClip:        cfg.Env.Clip != nil,
		SessionsPerDay: cfg.SessionsPerDay,
		WindowDays:     cfg.WindowDays,
		ShardSize:      cfg.ShardSize,
		Seed:           cfg.Seed,
		Retrain:        cfg.Retrain,
		Hidden:         cfg.Hidden,
		Horizon:        cfg.Horizon,
		Train:          cfg.Train,
	}
	if cfg.Env.Paths != nil {
		p.EnvPaths = cfg.Env.Paths.Name()
	}
	return p
}

// manifest builds the guard record for this config.
func (cfg *Config) manifest() manifest {
	if cfg.SpecHash != "" {
		return manifest{GuardHash: cfg.SpecHash, Spec: cfg.SpecJSON}
	}
	p := cfg.guardParams()
	blob, err := json.Marshal(&p)
	if err != nil {
		panic(fmt.Sprintf("runner: encoding guard params: %v", err))
	}
	sum := sha256.Sum256(blob)
	return manifest{GuardHash: hex.EncodeToString(sum[:]), Params: &p}
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
		if model != nil {
			r.slot.Store(model)
		}
		r.finishDay(ds, acc, data)
	}
	return day, nil
}

// checkManifest writes the manifest on first use and rejects resumes whose
// config would silently change the results of already-checkpointed days.
// The comparison is one hash equality; the stored spec (or params) only
// feeds the error message.
func (r *state) checkManifest() error {
	path := filepath.Join(r.cfg.CheckpointDir, manifestFile)
	want := r.cfg.manifest()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		blob, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return fmt.Errorf("runner: encoding manifest: %w", err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
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
	switch {
	case got.Spec != nil && want.Spec != nil:
		return fmt.Sprintf("\ncheckpointed spec:\n%s\nrequested spec:\n%s", got.Spec, want.Spec)
	case got.Params != nil && want.Params != nil:
		return fmt.Sprintf(" (%+v vs %+v)", *got.Params, *want.Params)
	case got.Spec != nil:
		return fmt.Sprintf("\ncheckpointed spec:\n%s\n(requested run was built from a raw runner.Config, not a scenario spec)", got.Spec)
	default:
		return " (checkpoint was built from a raw runner.Config, requested run from a scenario spec)"
	}
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
	if err := os.WriteFile(filepath.Join(tmp, statsFile), blob, 0o644); err != nil {
		return fmt.Errorf("runner: writing day stats: %w", err)
	}

	var accBuf bytes.Buffer
	if err := gob.NewEncoder(&accBuf).Encode(acc); err != nil {
		return fmt.Errorf("runner: encoding accumulator: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, accFile), accBuf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("runner: writing accumulator: %w", err)
	}

	if err := data.SaveFile(filepath.Join(tmp, telemetryFile)); err != nil {
		return err
	}
	if model := r.slot.Load(); model != nil {
		if err := model.SaveFile(filepath.Join(tmp, modelFile)); err != nil {
			return err
		}
	}

	if err := os.Rename(tmp, dayDir(root, ds.Day)); err != nil {
		return fmt.Errorf("runner: committing day %d: %w", ds.Day, err)
	}
	return nil
}

// loadDay reads one committed day. The model may be absent only if the day
// was checkpointed before any model existed (impossible in the current loop,
// but tolerated for forward compatibility).
func loadDay(dir string) (DayStats, *experiment.TrialAcc, *core.Dataset, *core.TTP, error) {
	var ds DayStats
	raw, err := os.ReadFile(filepath.Join(dir, statsFile))
	if err != nil {
		return ds, nil, nil, nil, err
	}
	if err := json.Unmarshal(raw, &ds); err != nil {
		return ds, nil, nil, nil, fmt.Errorf("decoding %s: %w", statsFile, err)
	}

	accRaw, err := os.ReadFile(filepath.Join(dir, accFile))
	if err != nil {
		return ds, nil, nil, nil, err
	}
	acc := experiment.NewTrialAcc(experiment.AllPaths)
	if err := gob.NewDecoder(bytes.NewReader(accRaw)).Decode(acc); err != nil {
		return ds, nil, nil, nil, fmt.Errorf("decoding %s: %w", accFile, err)
	}

	data, err := core.LoadDatasetFile(filepath.Join(dir, telemetryFile))
	if err != nil {
		return ds, nil, nil, nil, err
	}

	var model *core.TTP
	if _, err := os.Stat(filepath.Join(dir, modelFile)); err == nil {
		model, err = core.LoadFile(filepath.Join(dir, modelFile))
		if err != nil {
			return ds, nil, nil, nil, err
		}
	}
	return ds, acc, data, model, nil
}
