package figures

import (
	"io"
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/netem"
)

// Fig2Series holds the two throughput-evolution example sessions of
// Figure 2: a CS2P-style discrete-state session and a typical Puffer
// session with similar mean throughput.
type Fig2Series struct {
	CS2P   []float64 // Mbit/s per epoch
	Puffer []float64
	// DistinctLevels counts capacity plateaus in each series (CS2P should
	// have a handful; Puffer effectively one per epoch).
	CS2PLevels, PufferLevels int
}

// Fig2 reproduces Figure 2: Puffer does not observe CS2P's discrete
// throughput states.
func (s *Suite) Fig2(w io.Writer) (*Fig2Series, error) {
	const epochs = 200
	const epoch = 6.0 // seconds, as in both subfigures
	rng := rand.New(rand.NewSource(s.Seed + 200))
	cs2p := netem.GenCS2P(rng, 2.6e6, epochs*epoch)
	puffer := netem.GenPuffer(rng, 2.2e6, epochs*epoch)

	series := &Fig2Series{}
	sample := func(tr *netem.Trace) []float64 {
		out := make([]float64, epochs)
		for i := range out {
			// Average capacity across the epoch.
			var sum float64
			const sub = 6
			for k := 0; k < sub; k++ {
				sum += tr.RateAt(float64(i)*epoch + float64(k))
			}
			out[i] = sum / sub / 1e6
		}
		return out
	}
	series.CS2P = sample(cs2p)
	series.Puffer = sample(puffer)
	series.CS2PLevels = countLevels(series.CS2P, 0.08)
	series.PufferLevels = countLevels(series.Puffer, 0.08)

	var werr error
	line(w, &werr, "Figure 2: throughput evolution over %d six-second epochs\n", epochs)
	line(w, &werr, "(a) CS2P-style session: mean %.2f Mbit/s, %d discrete levels\n",
		mean(series.CS2P), series.CS2PLevels)
	line(w, &werr, "(b) Puffer-style session: mean %.2f Mbit/s, %d levels (continuous variation)\n",
		mean(series.Puffer), series.PufferLevels)
	line(w, &werr, "epoch,cs2p_mbps,puffer_mbps\n")
	for i := 0; i < epochs; i += 10 {
		line(w, &werr, "%d,%.3f,%.3f\n", i, series.CS2P[i], series.Puffer[i])
	}
	return series, werr
}

// countLevels clusters a series into plateaus: values within relTol of an
// existing cluster center join it; the count of clusters approximates the
// number of discrete states.
func countLevels(xs []float64, relTol float64) int {
	var centers []float64
outer:
	for _, x := range xs {
		for _, c := range centers {
			if abs(x-c)/c < relTol {
				continue outer
			}
		}
		centers = append(centers, x)
	}
	return len(centers)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig3Row is one chunk of the Figure 3 VBR illustration.
type Fig3Row struct {
	Chunk     int
	SizeTopMB float64 // 5500 kbps rung
	SizeBotMB float64 // 200 kbps rung
	SSIMTopdB float64
	SSIMBotdB float64
}

// Fig3 reproduces Figure 3: within one encoding setting, both compressed
// chunk size and picture quality vary chunk-by-chunk under VBR.
func (s *Suite) Fig3(w io.Writer) ([]Fig3Row, error) {
	nbc, err := media.FindProfile("nbc")
	if err != nil {
		return nil, err
	}
	src := media.NewSource(nbc, s.Seed+300)
	const n = 32
	rows := make([]Fig3Row, n)
	for i := 0; i < n; i++ {
		ch := src.Next()
		top := ch.Versions[len(ch.Versions)-1]
		bot := ch.Versions[0]
		rows[i] = Fig3Row{
			Chunk: i, SizeTopMB: top.Size / 1e6, SizeBotMB: bot.Size / 1e6,
			SSIMTopdB: top.SSIMdB, SSIMBotdB: bot.SSIMdB,
		}
	}
	var werr error
	line(w, &werr, "Figure 3: VBR variation within one stream (32 chunks)\n")
	line(w, &werr, "chunk,size_5500kbps_MB,size_200kbps_MB,ssim_5500kbps_dB,ssim_200kbps_dB\n")
	for _, r := range rows {
		line(w, &werr, "%d,%.3f,%.4f,%.2f,%.2f\n", r.Chunk, r.SizeTopMB, r.SizeBotMB, r.SSIMTopdB, r.SSIMBotdB)
	}
	return rows, werr
}

// Fig5 prints Figure 5: the feature table of the algorithms under study.
func (s *Suite) Fig5(w io.Writer) error {
	var werr error
	line(w, &werr, "Figure 5: distinguishing features of the algorithms\n")
	line(w, &werr, "%-24s %-26s %-16s %-30s %s\n", "Algorithm", "Control", "Predictor", "Optimization goal", "How trained")
	for _, e := range abr.Catalog() {
		line(w, &werr, "%-24s %-26s %-16s %-30s %s\n", e.Name, e.Control, e.Predictor, e.Objective, e.HowTrained)
	}
	return werr
}
