// Command figures regenerates the paper's tables and figures on the
// simulated substrate. Each figure is addressed by its paper id:
//
//	figures -fig 1            # the primary results table
//	figures -fig 8 -scale 3000
//	figures -fig 1,8,A1       # the primary experiment: one suite, three readouts
//	figures -fig all          # everything (slow)
//	figures -fig drift -results results/index.jsonl
//	                          # read the warehouse; run only missing cells
//
// Figure ids: 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, A1, 3.4, 4.6, 5.3, plus
// "drift" — the staleness ablation in a nonstationary deployment (the
// drift extension of §4.6) — and "fleet" — the serving-engine comparison
// (per-session vs virtual-time fleet multiplexing with cross-session
// batched inference).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"puffer/internal/figures"
	"puffer/internal/obscli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a single error return, so the
// observability teardown always executes — log.Fatal would skip the
// defers.
func run() error {
	fig := flag.String("fig", "1", "figure/section ids to regenerate, comma-separated (they share one trained suite), or 'all'")
	scale := flag.Int("scale", figures.DefaultScale, "primary experiment size in sessions")
	seed := flag.Int64("seed", 1, "suite seed")
	resultsPath := flag.String("results", "", "results index: scenario-backed figures (drift, fleet) read it and only launch missing cells, appending fresh records (empty: always run)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	var obsOpts obscli.Options
	obsOpts.Register(flag.CommandLine)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	stopObs, err := obsOpts.Start(false, logf)
	if err != nil {
		return err
	}
	defer stopObs()

	// The suite trains its TTPs up front, which dominates the command's
	// runtime — so build it lazily, on the first figure that actually
	// needs one. Static figures (the algorithm catalog) stay instant.
	var suite *figures.Suite
	getSuite := func() (*figures.Suite, error) {
		if suite != nil {
			return suite, nil
		}
		s, err := figures.NewSuite(*scale, *seed, logf)
		if err != nil {
			return nil, err
		}
		s.Results = *resultsPath
		suite = s
		return suite, nil
	}

	w := os.Stdout
	runFig := func(id string) error {
		if id == "5" {
			// Figure 5 is the static algorithm catalog: no experiment, no
			// trained models.
			return new(figures.Suite).Fig5(w)
		}
		suite, err := getSuite()
		if err != nil {
			return err
		}
		switch id {
		case "1":
			_, err := suite.Fig1(w)
			return err
		case "2":
			_, err := suite.Fig2(w)
			return err
		case "3":
			_, err := suite.Fig3(w)
			return err
		case "4":
			_, err := suite.Fig4(w)
			return err
		case "7":
			_, err := suite.Fig7(w)
			return err
		case "8":
			_, _, err := suite.Fig8(w)
			return err
		case "9":
			_, err := suite.Fig9(w)
			return err
		case "10":
			_, err := suite.Fig10(w)
			return err
		case "11":
			_, err := suite.Fig11(w)
			return err
		case "A1", "a1":
			_, err := suite.FigA1(w)
			return err
		case "3.4":
			_, err := suite.Sec34(w)
			return err
		case "4.6":
			_, err := suite.Sec46(w)
			return err
		case "5.3":
			_, err := suite.Sec53(w)
			return err
		case "drift":
			_, err := suite.FigDrift(w)
			return err
		case "fleet":
			_, err := suite.FigFleet(w)
			return err
		default:
			return fmt.Errorf("unknown figure id %q", id)
		}
	}

	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = []string{"1", "2", "3", "4", "5", "7", "8", "9", "10", "11", "A1", "3.4", "4.6", "5.3", "drift", "fleet"}
	}
	for _, id := range ids {
		if err := runFig(id); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
