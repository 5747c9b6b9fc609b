package figures

import (
	"io"

	"puffer/internal/netem"
	"puffer/internal/scenario"
)

// FigDriftRow is one day of the nonstationary staleness experiment: the
// Fugu arm's stall ratio under daily retraining and under the frozen day-0
// model, on seed-paired sessions.
type FigDriftRow struct {
	Day               int
	RetrainedStallPct float64
	FrozenStallPct    float64
	// GapPP is frozen minus retrained, in percentage points.
	GapPP float64
	// Drift describes the day's distribution shift.
	Drift string
}

// figDriftSpec is the figure's experiment, declared as a spec so its hash
// keys the results warehouse: the same staleness ablation the paper ran in
// its (stationary) deployment, but under the "shift" drift preset.
func (s *Suite) figDriftSpec() scenario.Spec {
	sessions := s.Scale / 4
	if sessions < 48 {
		sessions = 48
	}
	spec := scenario.New(
		scenario.Days(4),
		scenario.Sessions(sessions),
		scenario.Window(0),
		scenario.Seed(s.Seed+600),
		scenario.Epochs(6),
		scenario.Drift("shift"),
	)
	spec.Name = "fig-drift"
	return spec
}

// FigDrift runs (or reads back) the drift extension of §4.6: the staleness
// ablation in a deployment whose path population shifts under the model
// (the "shift" preset: the slow-path share grows daily and deep outages
// ramp). In situ retraining tracks the moving distribution; the frozen
// model falls behind at an accelerating rate — the separation the paper's
// Figure-9-style drift argument predicts emulation-or-stale training
// cannot avoid. With Suite.Results set, a populated index answers this
// figure without launching a single run: the record's precomputed per-day
// gap rows are the table.
func (s *Suite) FigDrift(w io.Writer) ([]FigDriftRow, error) {
	if s.drift == nil {
		spec := s.figDriftSpec().WithDefaults()
		sched, err := netem.DriftPreset(spec.Drift.Preset)
		if err != nil {
			return nil, err
		}
		s.Logf("drift staleness experiment (%d days x %d sessions, both arms)...",
			spec.Daily.Days, spec.Daily.Sessions)
		rec, err := s.scenarioRecord(spec)
		if err != nil {
			return nil, err
		}

		rows := make([]FigDriftRow, 0, len(rec.Outcome.Gaps))
		for _, g := range rec.Outcome.Gaps {
			if !g.Present {
				continue
			}
			rows = append(rows, FigDriftRow{
				Day:               g.Day,
				RetrainedStallPct: 100 * g.Retrained,
				FrozenStallPct:    100 * g.Frozen,
				GapPP:             100 * g.Gap,
				Drift:             sched.Describe(g.Day),
			})
		}
		s.drift = rows
	}

	var werr error
	line(w, &werr, "Drift: staleness ablation in a nonstationary deployment (preset \"shift\")\n")
	line(w, &werr, "%-4s %12s %12s %9s  %s\n", "Day", "Retrained%", "Frozen%", "Gap pp", "Drift")
	for _, r := range s.drift {
		line(w, &werr, "%-4d %11.3f%% %11.3f%% %+9.3f  %s\n",
			r.Day, r.RetrainedStallPct, r.FrozenStallPct, r.GapPP, r.Drift)
	}
	line(w, &werr, "Day 1 is identical by construction (both arms serve the day-0 model);\nfrom day 2 the frozen model meets paths its training data never contained.\n")
	return s.drift, werr
}
