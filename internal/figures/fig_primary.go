package figures

import (
	"io"
	"sort"

	"puffer/internal/experiment"
	"puffer/internal/stats"
)

// primaryOrder is the presentation order of Figure 1.
var primaryOrder = []string{"Fugu", "MPC-HM", "BBA", "Pensieve", "RobustMPC-HM"}

// orderStats sorts analysis rows into presentation order.
func orderStats(rows []experiment.SchemeStats, order []string) []experiment.SchemeStats {
	rank := map[string]int{}
	for i, n := range order {
		rank[n] = i
	}
	out := append([]experiment.SchemeStats(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].Name]
		rj, jok := rank[out[j].Name]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return out[i].Name < out[j].Name
		}
	})
	return out
}

// Fig1 reproduces Figure 1: the primary results table — time stalled, mean
// SSIM, SSIM variation, and mean time on site per scheme. It returns the
// rows for programmatic assertions.
func (s *Suite) Fig1(w io.Writer) ([]experiment.SchemeStats, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	rows := orderStats(acc.Analyze(s.Seed+100), primaryOrder)
	var werr error
	line(w, &werr, "Figure 1: Results of primary experiment (%d sessions randomized)\n", s.Scale)
	line(w, &werr, "%-14s %13s %10s %15s %14s\n", "Algorithm", "Time stalled", "Mean SSIM", "SSIM variation", "Mean duration")
	for _, r := range rows {
		line(w, &werr, "%-14s %12.3f%% %7.2f dB %12.2f dB %11.1f min\n",
			r.Name, 100*r.StallRatio.Point, r.SSIM.Point, r.SSIMVar, r.MeanDuration.Point/60)
	}
	return rows, werr
}

// Fig4 reproduces Figure 4: average SSIM vs average bitrate per scheme —
// SSIM-optimizing schemes deliver more quality per byte.
func (s *Suite) Fig4(w io.Writer) ([]experiment.SchemeStats, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	rows := orderStats(acc.Analyze(s.Seed+101), primaryOrder)
	var werr error
	line(w, &werr, "Figure 4: SSIM vs bitrate (quality per byte sent)\n")
	line(w, &werr, "%-14s %16s %10s\n", "Algorithm", "Avg bitrate", "Avg SSIM")
	for _, r := range rows {
		line(w, &werr, "%-14s %11.2f Mbps %7.2f dB\n", r.Name, r.MeanBitrate/1e6, r.SSIM.Point)
	}
	return rows, werr
}

// Fig8 reproduces Figure 8: the main scatter (stall ratio vs SSIM with 95%
// CIs) for all paths and for slow paths (< 6 Mbit/s mean delivery rate).
func (s *Suite) Fig8(w io.Writer) (all, slow []experiment.SchemeStats, err error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, nil, err
	}
	slowAcc, err := s.runPrimary(&s.primarySlow, experiment.SlowPaths)
	if err != nil {
		return nil, nil, err
	}
	all = orderStats(acc.Analyze(s.Seed+102), primaryOrder)
	slow = orderStats(slowAcc.Analyze(s.Seed+103), primaryOrder)
	var werr error
	write := func(title string, rows []experiment.SchemeStats) {
		line(w, &werr, "%s\n", title)
		line(w, &werr, "%-14s %22s %24s %9s\n", "Algorithm", "Stalled % [95% CI]", "SSIM dB [95% CI]", "Streams")
		for _, r := range rows {
			line(w, &werr, "%-14s %7.3f%% [%.3f, %.3f] %7.2f dB [%.2f, %.2f] %8d\n",
				r.Name, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi,
				r.SSIM.Point, r.SSIM.Lo, r.SSIM.Hi, r.Considered)
		}
	}
	write("Figure 8 (left): primary experiment, all paths", all)
	write("Figure 8 (right): slow network paths (< 6 Mbit/s)", slow)
	return all, slow, werr
}

// Fig9 reproduces Figure 9: cold start — startup delay vs first-chunk SSIM.
// Fugu's congestion-control bootstrap should buy initial quality.
func (s *Suite) Fig9(w io.Writer) ([]experiment.SchemeStats, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	rows := orderStats(acc.Analyze(s.Seed+104), primaryOrder)
	var werr error
	line(w, &werr, "Figure 9: cold start (startup delay vs first-chunk quality)\n")
	line(w, &werr, "%-14s %16s %22s\n", "Algorithm", "Startup delay", "First-chunk SSIM")
	for _, r := range rows {
		line(w, &werr, "%-14s %13.3f s %16.2f dB\n", r.Name, r.MeanStartup.Point, r.MeanFirstSSIM.Point)
	}
	return rows, werr
}

// Fig10Row is one scheme's session-duration summary plus CCDF tail points.
type Fig10Row struct {
	Scheme       string
	MeanDuration stats.Interval
	// TailP is the CCDF at the long-session threshold (upper-tail mass).
	TailP float64
}

// Fig10 reproduces Figure 10: the CCDF of total time on the video player.
// The tail threshold plays the role of the paper's 2.5-hour mark (scaled to
// this study's shorter absolute durations).
func (s *Suite) Fig10(w io.Writer) ([]Fig10Row, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	// The paper's tail mark is the ~95th percentile of session duration;
	// compute it over all schemes pooled. Each arm's durations are in
	// session-id order.
	var pooled []float64
	for _, a := range acc.Schemes {
		pooled = append(pooled, a.Duration.Values...)
	}
	tail := stats.Quantile(pooled, 0.95)

	rows := make([]Fig10Row, 0, len(acc.Schemes))
	for _, name := range primaryOrder {
		a, ok := acc.Schemes[name]
		if !ok {
			continue
		}
		d := a.Duration.Values
		rows = append(rows, Fig10Row{
			Scheme:       name,
			MeanDuration: stats.MeanSE(d),
			TailP:        stats.CCDFAt(d, tail),
		})
	}
	var werr error
	line(w, &werr, "Figure 10: time on video player (tail mark = %.1f min, pooled p95)\n", tail/60)
	line(w, &werr, "%-14s %24s %18s\n", "Algorithm", "Mean [95% CI] (min)", "P(dur >= tail)")
	for _, r := range rows {
		line(w, &werr, "%-14s %7.2f [%5.2f, %5.2f] %16.4f\n",
			r.Scheme, r.MeanDuration.Point/60, r.MeanDuration.Lo/60, r.MeanDuration.Hi/60, r.TailP)
	}
	return rows, werr
}

// FigA1 reproduces the CONSORT-style experimental-flow diagram of Figure A1
// from the counters each arm's accumulator carries. Arms are in name order.
func (s *Suite) FigA1(w io.Writer) ([]experiment.SchemeStats, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	arms := acc.Analyze(0)
	totalSessions, totalStreams := 0, 0
	for _, a := range arms {
		totalSessions += a.Sessions
		totalStreams += a.Streams
	}
	var werr error
	line(w, &werr, "Figure A1: CONSORT-style experimental flow\n")
	line(w, &werr, "%d sessions underwent randomization; %d streams\n", totalSessions, totalStreams)
	line(w, &werr, "%-14s %9s %8s %12s %9s %11s %11s %11s\n",
		"Arm", "Sessions", "Streams", "NeverPlayed", "Watch<4s", "BadDecoder", "Considered", "WatchYears")
	for _, a := range arms {
		line(w, &werr, "%-14s %9d %8d %12d %9d %11d %11d %11.4f\n",
			a.Name, a.Sessions, a.Streams, a.NeverPlayed, a.ShortWatch, a.BadDecoder, a.Considered, a.WatchYears)
	}
	return arms, werr
}

// Sec34 reproduces §3.4's uncertainty quantification: the relative width of
// each scheme's 95% bootstrap CI on stall ratio (the paper reports +/-10-17%
// at ~1.7 stream-years per scheme).
func (s *Suite) Sec34(w io.Writer) (map[string]float64, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	rows := orderStats(acc.Analyze(s.Seed+105), primaryOrder)
	out := map[string]float64{}
	var werr error
	line(w, &werr, "Section 3.4: statistical uncertainty of stall-ratio estimates\n")
	line(w, &werr, "%-14s %12s %22s %16s\n", "Algorithm", "StreamYears", "Stall% [95% CI]", "Rel. half-width")
	for _, r := range rows {
		rel := r.StallRatio.RelativeHalfWidth()
		out[r.Name] = rel
		line(w, &werr, "%-14s %12.4f %7.3f%% [%.3f, %.3f] %14.1f%%\n",
			r.Name, r.WatchYears, 100*r.StallRatio.Point, 100*r.StallRatio.Lo, 100*r.StallRatio.Hi, 100*rel)
	}
	return out, werr
}
