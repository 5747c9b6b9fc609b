// ABR tournament: every classical scheme (plus the related-work baselines
// the paper cites: rate-based and BOLA) on the same randomized workload —
// the style of comparison the paper's §5 tables are built from.
//
//	go run ./examples/abr-tournament
//
// Set PUFFER_EXAMPLE_SCALE (e.g. 0.2) to shrink session counts for a quick
// smoke run.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"puffer"
	"puffer/examples/internal/exscale"
	"puffer/internal/abr"
	"puffer/internal/experiment"
	"puffer/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	schemes := []puffer.Scheme{
		{Name: "BBA", New: func() puffer.Algorithm { return abr.NewBBA() }},
		{Name: "MPC-HM", New: func() puffer.Algorithm { return abr.NewMPCHM() }},
		{Name: "RobustMPC-HM", New: func() puffer.Algorithm { return abr.NewRobustMPCHM() }},
		{Name: "RateBased", New: func() puffer.Algorithm { return abr.NewRateBased() }},
		{Name: "BOLA", New: func() puffer.Algorithm { return abr.NewBOLA() }},
	}

	log.Printf("running %d-session tournament over deployment-like paths...", exscale.Scaled(600))
	cfg := puffer.Config{
		Env:      puffer.DefaultEnv(),
		Schemes:  schemes,
		Sessions: exscale.Scaled(600),
		Seed:     11,
	}
	// Sessions run one at a time so each one's stream summaries can be
	// kept for the CSV below, in session-id order, as the accumulator
	// folds it.
	acc := experiment.NewTrialAcc(experiment.AllPaths)
	var eligible []telemetry.StreamSummary
	for id := 0; id < cfg.Sessions; id++ {
		sess := cfg.RunOne(id)
		acc.AddSession(&sess)
		for _, s := range sess.Streams {
			if s.Eligible() {
				eligible = append(eligible, s)
			}
		}
	}

	rows := acc.Analyze(12)
	sort.Slice(rows, func(i, j int) bool { return rows[i].StallRatio.Point < rows[j].StallRatio.Point })
	fmt.Printf("%-14s %12s %10s %10s %12s %9s\n",
		"Scheme", "Stalled", "SSIM", "dSSIM", "Bitrate", "Streams")
	for _, r := range rows {
		fmt.Printf("%-14s %11.3f%% %7.2f dB %7.2f dB %9.2f Mbps %8d\n",
			r.Name, 100*r.StallRatio.Point, r.SSIM.Point, r.SSIMVar, r.MeanBitrate/1e6, r.Considered)
	}

	// Dump per-stream summaries for offline analysis, in the open-data
	// style of the paper's appendix.
	f, err := os.Create("tournament_streams.csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.WriteSummariesCSV(f, eligible); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d stream summaries to tournament_streams.csv", len(eligible))
}
