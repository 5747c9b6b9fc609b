// In-situ vs emulation: the paper's central lesson, in two acts.
//
// Act 1 (place): two Transmission Time Predictors are trained identically —
// one on telemetry from the deployment environment ("in situ"), one on
// telemetry from the FCC-trace emulation testbed — then both Fugus are
// deployed on the real (heavy-tailed) paths. The emulation-trained model
// falls apart, reproducing Figure 11's middle panel.
//
// Act 2 (time): the same mismatch arises without ever leaving the
// deployment, once the deployment refuses to stand still. Under a drifting
// path population the continual loop's nightly retraining tracks the
// shift, while a model frozen on day 0 is effectively "trained in a
// different environment" within days — the frozen-vs-retrained stall gap
// widens day over day.
//
//	go run ./examples/insitu-vs-emulation
//
// Set PUFFER_EXAMPLE_SCALE (e.g. 0.2) to shrink session counts for a quick
// smoke run.
package main

import (
	"fmt"
	"log"

	"puffer"
	"puffer/examples/internal/exscale"
	"puffer/internal/core"
)

// trainIn trains a TTP the way the platform does everywhere else: as a
// declarative scenario — a two-day continual loop in the named world (day
// 0 collects bootstrap telemetry and trains overnight; day 1 deploys that
// Fugu and retrains on both days). The spec is the whole experiment; no
// hand-assembled collection or training configs.
func trainIn(world, name string, seed int64) *puffer.TTP {
	log.Printf("training %s TTP (two-day continual loop)...", name)
	out, err := puffer.RunScenario(puffer.NewScenario(
		puffer.ScenarioWorld(world),
		puffer.ScenarioDays(2),
		puffer.ScenarioSessions(exscale.Scaled(150)),
		puffer.ScenarioWindow(2),
		puffer.ScenarioSeed(seed),
		puffer.ScenarioEpochs(8),
		puffer.ScenarioAblation(false),
	), puffer.ScenarioRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return out.Result.TTP
}

func main() {
	log.SetFlags(0)
	insitu := trainIn("insitu", "in-situ", 1)
	emu := trainIn("emulation", "emulation", 10)

	log.Println("deploying both on real-world (heavy-tailed) paths...")
	acc, err := puffer.RunExperiment(puffer.Config{
		Env: puffer.DefaultEnv(),
		Schemes: []puffer.Scheme{
			{Name: "Fugu (in situ)", New: func() puffer.Algorithm {
				return core.NewFuguNamed("Fugu (in situ)", insitu)
			}},
			{Name: "Fugu (emulation)", New: func() puffer.Algorithm {
				return core.NewFuguNamed("Fugu (emulation)", emu)
			}},
			{Name: "BBA", New: puffer.NewBBA},
		},
		Sessions: exscale.Scaled(400),
		Seed:     21,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-18s %22s %10s\n", "Scheme", "Stalled% [95% CI]", "SSIM")
	for _, r := range acc.Analyze(22) {
		fmt.Printf("%-18s %7.3f%% [%.3f, %.3f] %7.2f dB\n",
			r.Name, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi, r.SSIM.Point)
	}
	fmt.Println("\nThe emulation-trained predictor never saw heavy-tailed behavior,")
	fmt.Println("so it is overconfident exactly when the real network misbehaves.")

	// Act 2: a frozen model in a drifting deployment is "trained in a
	// different environment" a few days from now. The whole experiment —
	// drifting world, 4-day loop, frozen-model ablation — is one
	// declarative scenario spec; RunScenario runs both seed-paired arms.
	log.Println("running 4-day drifting deployment (both arms)...")
	out, err := puffer.RunScenario(puffer.NewScenario(
		puffer.ScenarioDriftPreset("shift"),
		puffer.ScenarioDays(4),
		puffer.ScenarioSessions(exscale.Scaled(80)),
		puffer.ScenarioSeed(41),
		puffer.ScenarioEpochs(4),
		puffer.ScenarioWindow(0),
	), puffer.ScenarioRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	retrained, frozen := out.Result, out.Frozen

	fmt.Printf("\nDrifting deployment (slow-path share +30 pts/day): Fugu stall ratio by day\n")
	fmt.Printf("%-4s %12s %12s %9s\n", "Day", "Retrained%", "Frozen%", "Gap pp")
	for _, g := range puffer.StalenessGaps(retrained, frozen, "Fugu") {
		if !g.Present {
			continue
		}
		fmt.Printf("%-4d %11.3f%% %11.3f%% %+9.3f\n", g.Day,
			100*g.Retrained, 100*g.Frozen, 100*g.Gap)
	}
	if exscale.Reduced() {
		fmt.Println("\n(reduced-scale smoke run: per-day stall ratios are noisy at this")
		fmt.Println("session count; run without PUFFER_EXAMPLE_SCALE for the clean separation)")
	}
	fmt.Println("\nSame lesson in time instead of place: training data must come from")
	fmt.Println("the environment the model serves — and keep coming from it.")
}
