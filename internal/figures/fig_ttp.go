package figures

import (
	"io"
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
)

// Fig7Row is one ablation variant's held-out predictor quality.
type Fig7Row struct {
	Variant      core.Variant
	CrossEntropy float64
	Accuracy     float64
	Within1      float64
}

// Fig7 reproduces Figure 7, the TTP ablation study: each variant is trained
// on the identical in-situ dataset and scored on a held-out split at
// predicting transmission-time bins.
func (s *Suite) Fig7(w io.Writer) ([]Fig7Row, error) {
	// Split streams 80/20 into train/test.
	data := s.insituDat
	nTrain := len(data.Streams) * 4 / 5
	train := &core.Dataset{Streams: data.Streams[:nTrain]}
	test := &core.Dataset{Streams: data.Streams[nTrain:]}

	rows := make([]Fig7Row, 0, len(core.AllVariants()))
	for _, v := range core.AllVariants() {
		// Horizon 1 keeps the ablation affordable; step-0 accuracy is
		// what Figure 7 reports.
		ttp := core.NewVariantTTP(rand.New(rand.NewSource(s.Seed+400)), v, 1)
		cfg := trainCfg(s.Seed + 401)
		if _, err := core.Train(ttp, train, cfg); err != nil {
			return nil, err
		}
		ev := core.EvaluateTransTimeMode(ttp, test, 0, core.VariantMode(v))
		rows = append(rows, Fig7Row{
			Variant: v, CrossEntropy: ev.CrossEntropy,
			Accuracy: ev.Accuracy, Within1: ev.Within1,
		})
		s.Logf("  fig7 %-22s CE %.3f acc %.3f within1 %.3f", v, ev.CrossEntropy, ev.Accuracy, ev.Within1)
	}
	var werr error
	line(w, &werr, "Figure 7: TTP ablation (held-out transmission-time prediction)\n")
	line(w, &werr, "%-22s %14s %10s %10s\n", "Variant", "CrossEntropy", "Accuracy", "Within1")
	for _, r := range rows {
		line(w, &werr, "%-22s %14.3f %10.3f %10.3f\n", r.Variant, r.CrossEntropy, r.Accuracy, r.Within1)
	}
	return rows, werr
}

// Sec46Row summarizes one arm of the stale-model trial.
type Sec46Row struct {
	Scheme     string
	StallPct   float64
	StallLo    float64
	StallHi    float64
	SSIM       float64
	Overlapped bool
}

// Sec46 reproduces §4.6's daily-retraining check: a TTP trained on old data
// ("February") runs head-to-head against one freshly retrained with a
// warm start ("daily"). In a stationary deployment the two are statistically
// indistinguishable — the paper's (surprising) result.
func (s *Suite) Sec46(w io.Writer) ([]Sec46Row, error) {
	// "February" model: the suite's in-situ TTP, trained on day-0 data.
	feb := s.InSituTTP

	// "Daily" model: collect fresh telemetry months later (the simulated
	// environment is stationary, as Puffer's turned out to be) and
	// retrain warm-started from the old weights.
	sessions := s.Scale / 5
	if sessions < 100 {
		sessions = 100
	}
	fresh, err := experiment.CollectDataset(experiment.DefaultEnv(), behaviorSchemes(s.Seed+419), sessions, s.Seed+420, 150)
	if err != nil {
		return nil, err
	}
	daily := feb.Clone()
	cfg := trainCfg(s.Seed + 421)
	cfg.WindowDays = 14
	if _, err := core.Train(daily, fresh, cfg); err != nil {
		return nil, err
	}

	trial := s.Scale / 2
	if trial < 200 {
		trial = 200
	}
	acc, err := runTrial(experiment.Config{
		Env: experiment.DefaultEnv(),
		Schemes: []experiment.Scheme{
			{Name: "Fugu-Feb", New: func() abr.Algorithm { return core.NewFuguNamed("Fugu-Feb", feb) }},
			{Name: "Fugu-Daily", New: func() abr.Algorithm { return core.NewFuguNamed("Fugu-Daily", daily) }},
		},
		Sessions: trial,
		Seed:     s.Seed + 422,
	}, experiment.AllPaths)
	if err != nil {
		return nil, err
	}
	st := acc.Analyze(s.Seed + 423)
	if len(st) != 2 {
		return nil, errTooFewArms
	}
	overlap := st[0].StallRatio.Overlaps(st[1].StallRatio) && st[0].SSIM.Overlaps(st[1].SSIM)
	rows := make([]Sec46Row, 0, 2)
	var werr error
	line(w, &werr, "Section 4.6: stale TTP vs daily-retrained TTP (stationary deployment)\n")
	line(w, &werr, "%-12s %22s %10s\n", "Model", "Stalled% [95% CI]", "SSIM dB")
	for _, r := range st {
		rows = append(rows, Sec46Row{
			Scheme: r.Name, StallPct: 100 * r.StallRatio.Point,
			StallLo: 100 * r.StallRatio.Lo, StallHi: 100 * r.StallRatio.Hi,
			SSIM: r.SSIM.Point, Overlapped: overlap,
		})
		line(w, &werr, "%-12s %7.3f%% [%.3f, %.3f] %7.2f\n",
			r.Name, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi, r.SSIM.Point)
	}
	if overlap {
		line(w, &werr, "CIs overlap: no detectable benefit from daily retraining (matches the paper).\n")
	} else {
		line(w, &werr, "CIs do NOT overlap: retraining mattered in this run.\n")
	}
	return rows, werr
}

var errTooFewArms = errString("figures: expected two arms in the stale-model trial")

type errString string

func (e errString) Error() string { return string(e) }
