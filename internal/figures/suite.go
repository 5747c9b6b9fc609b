package figures

import (
	"fmt"
	"io"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/pensieve"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

// Suite holds the trained models and cached experiment results shared by
// the figures. Building a Suite performs data collection and training
// (roughly a minute at default scale); individual figures then run their
// experiments on demand and cache what they share.
type Suite struct {
	// Scale is the number of sessions in the primary experiment; other
	// experiments scale proportionally.
	Scale int
	// Seed makes the whole suite deterministic.
	Seed int64
	// Results, if set, is a results-warehouse index path: figures that run
	// whole scenarios (drift, fleet) read it first and only launch the
	// runs whose spec hash it is missing, appending fresh records for next
	// time. Empty: always run, never persist.
	Results string
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)

	InSituTTP *core.TTP
	EmuTTP    *core.TTP
	Policy    *pensieve.Agent

	primary     *experiment.TrialAcc // all paths
	primarySlow *experiment.TrialAcc // slow paths only (Figure 8, right)
	emulation   *experiment.TrialAcc
	insituDat   *core.Dataset
	drift       []FigDriftRow
	fleet       []FigFleetRow
}

// DefaultScale is the default primary-experiment size in sessions.
const DefaultScale = 1500

// NewSuite collects telemetry, trains the in-situ TTP, the emulation-trained
// TTP, and the Pensieve policy, and returns a ready Suite.
func NewSuite(scale int, seed int64, logf func(string, ...any)) (*Suite, error) {
	if scale <= 0 {
		scale = DefaultScale
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Suite{Scale: scale, Seed: seed, Logf: logf}

	collectSessions := scale / 3
	if collectSessions < 150 {
		collectSessions = 150
	}

	logf("training in-situ TTP (two-day continual loop, %d sessions/day)...", collectSessions)
	insituTTP, insituData, err := trainTTPInWorld("insitu", collectSessions, seed+1, logf)
	if err != nil {
		return nil, fmt.Errorf("figures: in-situ TTP: %w", err)
	}
	s.InSituTTP = insituTTP
	s.insituDat = insituData

	logf("training emulation TTP (two-day continual loop, %d sessions/day)...", collectSessions)
	emuTTP, _, err := trainTTPInWorld("emulation", collectSessions, seed+3, logf)
	if err != nil {
		return nil, fmt.Errorf("figures: emulation TTP: %w", err)
	}
	s.EmuTTP = emuTTP

	logf("training Pensieve in emulation (policy gradient)...")
	pcfg := pensieve.DefaultTrainConfig()
	pcfg.Seed = seed + 5
	agent, pres := pensieve.Train(pcfg)
	s.Policy = agent
	logf("  final mean reward %.2f per chunk", pres.MeanReward)

	return s, nil
}

// behaviorSchemes is the bootstrap data-collection mixture, shared with the
// continual runner: the classical schemes Puffer ran from day one, with
// light exploration for off-policy coverage of the (state, chunk size)
// space.
func behaviorSchemes(seed int64) []experiment.Scheme {
	return runner.BootstrapSchemes(seed)
}

// trainTTPInWorld reproduces the in-situ training loop in a given world by
// running the continual-experiment runner for two days: day 0 collects
// bootstrap telemetry from the classical schemes and trains a first TTP
// overnight; day 1 deploys that Fugu to gather telemetry from its own
// decisions (as the live deployment does continuously) and the nightly phase
// retrains on both days. The experiment is declared as a scenario spec —
// figures, the CLI, and the daily loop all go through the same front door.
func trainTTPInWorld(world string, sessions int, seed int64, logf func(string, ...any)) (*core.TTP, *core.Dataset, error) {
	spec := scenario.New(
		scenario.World(world),
		scenario.Days(2),
		scenario.Sessions(sessions),
		scenario.Window(2),
		scenario.Seed(seed),
		scenario.Epochs(suiteTrainEpochs),
		scenario.RecencyBase(1), // both days weighted equally when bootstrapping
		scenario.Ablation(false),
	)
	out, err := scenario.Run(spec, scenario.RunOptions{
		Logf: func(format string, args ...any) { logf("  "+format, args...) },
	})
	if err != nil {
		return nil, nil, err
	}
	return out.Result.TTP, out.Result.Data, nil
}

// suiteTrainEpochs is the offline trainings' epoch count (more than the
// daily loop's nightly default, since the suite trains each model once).
const suiteTrainEpochs = 12

// trainCfg is the offline training setup for models the figures train
// directly with core.Train (outside the daily loop).
func trainCfg(seed int64) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Seed = seed
	cfg.Epochs = suiteTrainEpochs
	return cfg
}

// PrimarySchemes returns the five arms of the paper's primary experiment.
// Factories build fresh per-session instances; the trained models themselves
// are shared and read-only at inference.
func (s *Suite) PrimarySchemes() []experiment.Scheme {
	policy := s.Policy.Policy()
	return []experiment.Scheme{
		{Name: "Fugu", New: func() abr.Algorithm { return core.NewFugu(s.InSituTTP) }},
		{Name: "MPC-HM", New: func() abr.Algorithm { return abr.NewMPCHM() }},
		{Name: "RobustMPC-HM", New: func() abr.Algorithm { return abr.NewRobustMPCHM() }},
		{Name: "Pensieve", New: func() abr.Algorithm { return pensieve.NewAgent(policy) }},
		{Name: "BBA", New: func() abr.Algorithm { return abr.NewBBA() }},
	}
}

// Primary runs (once) and returns the primary randomized experiment: the
// five arms on the deployment environment, folded over all paths.
func (s *Suite) Primary() (*experiment.TrialAcc, error) {
	return s.runPrimary(&s.primary, experiment.AllPaths)
}

// runPrimary runs the primary experiment with the given filter into *cache,
// once. An accumulator holds one filter, so Figure 8's slow-path panel
// reruns the sessions rather than keeping them.
func (s *Suite) runPrimary(cache **experiment.TrialAcc, filter experiment.AnalysisFilter) (*experiment.TrialAcc, error) {
	if *cache == nil {
		s.Logf("running primary experiment (%d sessions, 5 schemes, filter %d)...", s.Scale, filter)
		acc, err := runTrial(experiment.Config{
			Env:      experiment.DefaultEnv(),
			Schemes:  s.PrimarySchemes(),
			Sessions: s.Scale,
			Seed:     s.Seed + 10,
		}, filter)
		if err != nil {
			return nil, err
		}
		*cache = acc
	}
	return *cache, nil
}

// runTrial runs a figure's trial on the session engine with the default
// shards, on every core.
func runTrial(cfg experiment.Config, filter experiment.AnalysisFilter) (*experiment.TrialAcc, error) {
	return cfg.RunSharded(experiment.DefaultShardSize, 0, filter)
}

// line prints a formatted row to w, propagating the first write error via
// the returned function pattern used across the figure writers.
func line(w io.Writer, err *error, format string, args ...any) {
	if *err != nil {
		return
	}
	_, *err = fmt.Fprintf(w, format, args...)
}
