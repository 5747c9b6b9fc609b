package figures

import (
	"bytes"
	"encoding/json"
	"io"

	"puffer/internal/experiment"
	"puffer/internal/results"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

// FigFleetRow is one engine's row of the serving-engine comparison.
type FigFleetRow struct {
	Engine         string
	SessionsPerSec float64
	// PeakConcurrent/MeanConcurrent/MeanBatchRows describe the fleet
	// engine's multiplexing (zero for the per-session engine).
	PeakConcurrent int
	MeanConcurrent float64
	MeanBatchRows  float64
	// Identical reports whether this engine's results (pooled and per-day
	// scheme statistics) matched the per-session engine's byte for byte.
	Identical bool
}

// figFleetSpec is one engine's cell of the comparison: the same two-day
// continual loop on the same seed, differing only in the execution engine
// — an engine axis over one spec, which is exactly what the byte-identity
// claim needs the experiment to be.
func (s *Suite) figFleetSpec(engine string) scenario.Spec {
	sessions := s.Scale / 4
	if sessions < 48 {
		sessions = 48
	}
	spec := scenario.New(
		scenario.Days(2),
		scenario.Sessions(sessions),
		scenario.Window(2),
		scenario.Seed(s.Seed+700),
		scenario.Epochs(6),
		scenario.Ablation(false),
		scenario.Engine(engine),
	)
	spec.Name = "fig-fleet/" + engine
	return spec
}

// FigFleet compares the two execution engines on the same declared
// experiment: the per-session engine runs sessions to completion one at a
// time, the fleet engine multiplexes them in virtual time and batches TTP
// inference across concurrent sessions through the inference service.
// The rows certify the engines agree byte for byte — the property that
// lets every experiment switch engines without changing a single result —
// and report the fleet's multiplexing shape. With Suite.Results set, both
// cells are answered from the index when present (the engine axis changes
// the spec hash but not the GuardHash, so the cells can even share one
// checkpoint lineage under the sweep executor). Wall-clock throughput is
// measured from each record's timing and so describes the run that
// produced the record, including its nightly training.
func (s *Suite) FigFleet(w io.Writer) ([]FigFleetRow, error) {
	if s.fleet == nil {
		var recs [2]*results.Record
		for i, engine := range []string{"session", "fleet"} {
			s.Logf("engine cell %q...", engine)
			rec, err := s.scenarioRecord(s.figFleetSpec(engine))
			if err != nil {
				return nil, err
			}
			recs[i] = rec
		}
		seq, flt := recs[0], recs[1]
		identical := bytes.Equal(engineFingerprint(&seq.Outcome), engineFingerprint(&flt.Outcome))

		spec := s.figFleetSpec("fleet").WithDefaults()
		totalSessions := float64(spec.Daily.Days * spec.Daily.Sessions)
		var peak int
		var meanConc, meanBatch float64
		fleetDays := 0
		for _, d := range flt.Outcome.Days {
			if d.Fleet == nil {
				continue
			}
			fleetDays++
			if d.Fleet.PeakConcurrent > peak {
				peak = d.Fleet.PeakConcurrent
			}
			meanConc += d.Fleet.MeanConcurrent
			meanBatch += d.Fleet.MeanBatchRows
		}
		if fleetDays > 0 {
			meanConc /= float64(fleetDays)
			meanBatch /= float64(fleetDays)
		}

		s.fleet = []FigFleetRow{
			{Engine: "per-session", SessionsPerSec: perSec(totalSessions, seq.Timing.WallSeconds), Identical: true},
			{Engine: "fleet", SessionsPerSec: perSec(totalSessions, flt.Timing.WallSeconds),
				PeakConcurrent: peak, MeanConcurrent: meanConc,
				MeanBatchRows: meanBatch, Identical: identical},
		}
	}

	var werr error
	line(w, &werr, "Fleet: serving-engine comparison (same seed, byte-identical results required)\n")
	line(w, &werr, "%-12s %13s %9s %9s %11s %10s\n",
		"Engine", "Sessions/sec", "PeakConc", "MeanConc", "Batch rows", "Identical")
	for _, r := range s.fleet {
		line(w, &werr, "%-12s %13.1f %9d %9.1f %11.1f %10t\n",
			r.Engine, r.SessionsPerSec, r.PeakConcurrent, r.MeanConcurrent, r.MeanBatchRows, r.Identical)
	}
	line(w, &werr, "Fleet batches TTP inference across concurrent sessions over the packed\n(SIMD) model snapshots; identical=true certifies the engines agree.\n")
	return s.fleet, werr
}

// engineFingerprint serializes the engine-independent part of an outcome:
// pooled totals and per-day scheme stats, with the fleet engine's
// serving-side record (which the session engine by definition lacks)
// stripped.
func engineFingerprint(o *results.Outcome) []byte {
	days := make([]runner.DayStats, len(o.Days))
	copy(days, o.Days)
	for i := range days {
		days[i].Fleet = nil
	}
	blob, err := json.Marshal(struct {
		Total []experiment.SchemeStats
		Days  []runner.DayStats
	}{o.Total, days})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return blob
}

func perSec(n, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return n / seconds
}
