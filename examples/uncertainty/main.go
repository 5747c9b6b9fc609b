// Uncertainty: why small ABR experiments mislead (§3.4 and §5.3).
//
// Streams have heavy-tailed watch times and rare, bursty stalls, so the
// aggregate stall ratio converges slowly. This program measures bootstrap
// CI widths at several sample sizes and then runs the paper's power
// analysis: how many streams to reliably detect a true 15% difference?
//
//	go run ./examples/uncertainty
//
// Set PUFFER_EXAMPLE_SCALE (e.g. 0.2) to shrink session and resample counts
// for a quick smoke run.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"puffer"
	"puffer/examples/internal/exscale"
	"puffer/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.Println("simulating a BBA arm to get realistic stream behavior...")
	acc, err := puffer.RunExperiment(puffer.Config{
		Env:      puffer.DefaultEnv(),
		Schemes:  []puffer.Scheme{{Name: "BBA", New: puffer.NewBBA}},
		Sessions: exscale.Scaled(500),
		Seed:     31,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := acc.Schemes["BBA"].Points.Points
	log.Printf("pool: %d streams, aggregate stall ratio %.4f%%", len(pool), 100*stats.StallRatio(pool))

	rng := rand.New(rand.NewSource(32))
	fmt.Printf("\nBootstrap 95%% CI width vs sample size (stall ratio):\n")
	fmt.Printf("%-10s %14s %18s\n", "Streams", "Stall ratio", "Rel. half-width")
	for _, n := range []int{exscale.Scaled(500), exscale.Scaled(2000), exscale.Scaled(8000), exscale.Scaled(32000)} {
		sample := make([]stats.StreamPoint, n)
		for i := range sample {
			sample[i] = pool[rng.Intn(len(pool))]
		}
		iv := stats.BootstrapStallRatio(rng, sample, 300)
		fmt.Printf("%-10d %13.4f%% %17.1f%%\n", n, 100*iv.Point, 100*iv.RelativeHalfWidth())
	}

	fmt.Printf("\nPower to detect a true 15%% stall-ratio difference:\n")
	cfg := stats.PowerConfig{Effect: 0.15, Trials: 30, BootstrapIters: 150}
	draw := func(rng *rand.Rand, scale float64) stats.StreamPoint {
		p := pool[rng.Intn(len(pool))]
		p.Stall *= scale
		return p
	}
	meanWatch := 0.0
	for _, p := range pool {
		meanWatch += p.Watch
	}
	meanWatch /= float64(len(pool))
	fmt.Printf("%-10s %14s %16s\n", "Streams", "Stream-years", "Detection rate")
	for _, n := range []int{exscale.Scaled(1000), exscale.Scaled(4000), exscale.Scaled(16000), exscale.Scaled(64000)} {
		rate := stats.DetectionRate(rng, cfg, n, draw)
		years := float64(n) * meanWatch / (365.25 * 24 * 3600)
		fmt.Printf("%-10d %14.3f %16.2f\n", n, years, rate)
	}
	fmt.Println("\nModest effects need stream-years of data — shorter experiments")
	fmt.Println("report differences that are mostly the play of chance (§5.3).")
}
