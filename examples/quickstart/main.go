// Quickstart: train a small Fugu and stream one session with it.
//
// This walks the whole pipeline on a reduced scale: collect in-situ
// telemetry with BBA (the bootstrap behavior scheme), train a Transmission
// Time Predictor, wrap it in the stochastic MPC controller, and run a
// randomized experiment of Fugu against BBA.
//
//	go run ./examples/quickstart
//
// Set PUFFER_EXAMPLE_SCALE (e.g. 0.2) to shrink session counts for a quick
// smoke run.
package main

import (
	"fmt"
	"log"

	"puffer"
	"puffer/examples/internal/exscale"
)

func main() {
	log.SetFlags(0)

	// 1. Collect telemetry from the deployment environment.
	env := puffer.DefaultEnv()
	// Exploration matters: a TTP trained purely on one scheme's choices
	// never sees what big chunks do to a congested path.
	behavior := []puffer.Scheme{{Name: "BBA", New: func() puffer.Algorithm {
		return puffer.WithExploration(puffer.NewBBA(), 0.15, 7)
	}}}
	log.Printf("collecting telemetry (%d sessions of BBA with exploration)...", exscale.Scaled(150))
	data, err := puffer.CollectDataset(env, behavior, exscale.Scaled(150), 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("collected %d chunks across %d streams", data.NumChunks(), len(data.Streams))

	// 2. Train the TTP on it (supervised learning, in situ).
	ttp := puffer.NewTTP(2)
	cfg := puffer.DefaultTrainConfig()
	cfg.Epochs = 10
	log.Println("training the Transmission Time Predictor...")
	if err := puffer.TrainTTP(ttp, data, cfg); err != nil {
		log.Fatal(err)
	}

	// 3. Race Fugu against BBA in a blinded randomized trial.
	log.Printf("running a %d-session randomized trial: Fugu vs BBA...", exscale.Scaled(200))
	acc, err := puffer.RunExperiment(puffer.Config{
		Env: env,
		Schemes: []puffer.Scheme{
			{Name: "Fugu", New: func() puffer.Algorithm { return puffer.NewFugu(ttp) }},
			{Name: "BBA", New: puffer.NewBBA},
		},
		Sessions: exscale.Scaled(200),
		Seed:     3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report, with bootstrap confidence intervals.
	fmt.Printf("%-8s %22s %24s %10s\n", "Scheme", "Stalled% [95% CI]", "SSIM dB [95% CI]", "Streams")
	for _, r := range acc.Analyze(4) {
		fmt.Printf("%-8s %7.3f%% [%.3f, %.3f] %7.2f dB [%.2f, %.2f] %9d\n",
			r.Name, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi,
			r.SSIM.Point, r.SSIM.Lo, r.SSIM.Hi, r.Considered)
	}
}
