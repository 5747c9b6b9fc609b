package figures

import (
	"io"
	"math/rand"
	"sort"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/stats"
)

// Fig11Result carries the three panels of Figure 11: scheme statistics in
// emulation, scheme statistics (including emulation-trained Fugu) in the
// deployment environment, and the throughput distributions of the two
// worlds.
type Fig11Result struct {
	Emulation []experiment.SchemeStats
	Real      []experiment.SchemeStats
	// Throughput quantiles (Mbit/s) at 10/25/50/75/90/99%.
	FCCQuantiles    []float64
	PufferQuantiles []float64
}

// fig11Order includes the sixth arm.
var fig11Order = append(append([]string{}, primaryOrder...), "Emulation-trained Fugu")

// Fig11 reproduces Figure 11: emulation results differ markedly from the
// real world, and a Fugu trained in emulation performs terribly when
// deployed — training environment fidelity is everything.
func (s *Suite) Fig11(w io.Writer) (*Fig11Result, error) {
	sessions := s.Scale / 2
	if sessions < 200 {
		sessions = 200
	}
	primary := s.PrimarySchemes()
	withEmuFugu := append(primary[:len(primary):len(primary)], experiment.Scheme{
		Name: "Emulation-trained Fugu",
		New:  func() abr.Algorithm { return core.NewFuguNamed("Emulation-trained Fugu", s.EmuTTP) },
	})

	if s.emulation == nil {
		s.Logf("running emulation experiment (%d sessions)...", sessions)
		emu, err := runTrial(experiment.Config{
			Env:      experiment.EmulationEnv(),
			Schemes:  primary,
			Sessions: sessions,
			Seed:     s.Seed + 500,
		}, experiment.AllPaths)
		if err != nil {
			return nil, err
		}
		s.emulation = emu
	}

	s.Logf("running deployment experiment with emulation-trained Fugu (%d sessions)...", sessions)
	deployed, err := runTrial(experiment.Config{
		Env:      experiment.DefaultEnv(),
		Schemes:  withEmuFugu,
		Sessions: sessions,
		Seed:     s.Seed + 501,
	}, experiment.AllPaths)
	if err != nil {
		return nil, err
	}

	out := &Fig11Result{
		Emulation: orderStats(s.emulation.Analyze(s.Seed+502), fig11Order),
		Real:      orderStats(deployed.Analyze(s.Seed+503), fig11Order),
	}

	// Right panel: the two worlds' throughput distributions.
	qs := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}
	out.FCCQuantiles = pathQuantiles(s.Seed+504, experiment.EmulationEnv(), qs)
	out.PufferQuantiles = pathQuantiles(s.Seed+505, experiment.DefaultEnv(), qs)

	var werr error
	write := func(title string, rows []experiment.SchemeStats) {
		line(w, &werr, "%s\n", title)
		line(w, &werr, "%-24s %12s %10s %9s\n", "Algorithm", "Stalled", "SSIM", "Streams")
		for _, r := range rows {
			line(w, &werr, "%-24s %11.3f%% %7.2f dB %8d\n", r.Name, 100*r.StallRatio.Point, r.SSIM.Point, r.Considered)
		}
	}
	write("Figure 11 (left): performance in emulation (FCC-like paths, looping clip)", out.Emulation)
	write("Figure 11 (middle): deployment results incl. emulation-trained Fugu", out.Real)
	line(w, &werr, "Figure 11 (right): session mean-throughput quantiles (Mbit/s)\n")
	line(w, &werr, "%-10s %8s %8s %8s %8s %8s %8s\n", "family", "p10", "p25", "p50", "p75", "p90", "p99")
	line(w, &werr, "%-10s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", "fcc",
		out.FCCQuantiles[0], out.FCCQuantiles[1], out.FCCQuantiles[2], out.FCCQuantiles[3], out.FCCQuantiles[4], out.FCCQuantiles[5])
	line(w, &werr, "%-10s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", "puffer",
		out.PufferQuantiles[0], out.PufferQuantiles[1], out.PufferQuantiles[2], out.PufferQuantiles[3], out.PufferQuantiles[4], out.PufferQuantiles[5])
	return out, werr
}

// pathQuantiles samples session-mean capacities from an environment's path
// family and returns the requested quantiles in Mbit/s.
func pathQuantiles(seed int64, env experiment.Env, qs []float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	const n = 1500
	means := make([]float64, n)
	for i := range means {
		means[i] = env.Paths.Sample(rng, 60).Trace.Mean() / 1e6
	}
	sort.Float64s(means)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.Quantile(means, q)
	}
	return out
}
