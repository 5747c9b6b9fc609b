package figures

import (
	"io"
	"maps"
	"math/rand"
	"slices"

	"puffer/internal/stats"
)

// Sec53Row is one sample-size point of the §5.3 power analysis.
type Sec53Row struct {
	StreamsPerScheme int
	StreamYears      float64
	DetectionRate    float64
}

// sec53Sizes are the per-scheme sample sizes Sec53 tries, smallest first; it
// stops at the first that detects the effect almost surely.
var sec53Sizes = []int{1000, 4000, 16000, 64000, 256000}

// Sec53 reproduces §5.3's calculation: with realistic heavy-tailed stream
// behavior, how much data does it take to reliably distinguish two ABR
// schemes whose true stall ratios differ by 15%? The paper's answer is
// about two stream-years per scheme.
func (s *Suite) Sec53(w io.Writer) ([]Sec53Row, error) {
	acc, err := s.Primary()
	if err != nil {
		return nil, err
	}
	// Empirical stream behavior: every arm's considered streams, pooled in
	// scheme-name order so the resampling draws are reproducible.
	var pool []stats.StreamPoint
	for _, name := range slices.Sorted(maps.Keys(acc.Schemes)) {
		pool = append(pool, acc.Schemes[name].Points.Points...)
	}
	if len(pool) == 0 {
		return nil, errString("figures: no eligible streams for power analysis")
	}
	meanWatch := 0.0
	for _, p := range pool {
		meanWatch += p.Watch
	}
	meanWatch /= float64(len(pool))

	draw := func(rng *rand.Rand, scale float64) stats.StreamPoint {
		p := pool[rng.Intn(len(pool))]
		p.Stall *= scale
		return p
	}
	cfg := stats.PowerConfig{Effect: 0.15, Trials: 25, BootstrapIters: 150}
	rng := rand.New(rand.NewSource(s.Seed + 600))

	rows := make([]Sec53Row, 0, len(sec53Sizes))
	var werr error
	line(w, &werr, "Section 5.3: power to distinguish two schemes differing by 15%% in stall ratio\n")
	line(w, &werr, "%-18s %14s %16s\n", "Streams/scheme", "Stream-years", "Detection rate")
	for _, n := range sec53Sizes {
		rate := stats.DetectionRate(rng, cfg, n, draw)
		years := float64(n) * meanWatch / (365.25 * 24 * 3600)
		r := Sec53Row{StreamsPerScheme: n, StreamYears: years, DetectionRate: rate}
		rows = append(rows, r)
		line(w, &werr, "%-18d %14.3f %16.2f\n", r.StreamsPerScheme, r.StreamYears, r.DetectionRate)
		s.Logf("  sec5.3 n=%d years=%.3f detect=%.2f", r.StreamsPerScheme, r.StreamYears, r.DetectionRate)
		if r.DetectionRate >= 0.99 {
			break
		}
	}
	return rows, werr
}
