package puffer

// The benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation. Each benchmark regenerates its experiment through the
// shared figures.Suite (built once, with models trained once) and reports
// the headline quantities as custom benchmark metrics, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the whole evaluation. Scale with PUFFER_BENCH_SESSIONS
// (default 400 sessions — small enough for CI, large enough for stable
// orderings; the paper-scale shape analysis in EXPERIMENTS.md used 800+).

import (
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/figures"
	"puffer/internal/media"
)

var (
	suiteOnce sync.Once
	suite     *figures.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *figures.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		scale := 400
		if v := os.Getenv("PUFFER_BENCH_SESSIONS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				scale = n
			}
		}
		suite, suiteErr = figures.NewSuite(scale, 1, nil)
	})
	if suiteErr != nil {
		b.Fatalf("building suite: %v", suiteErr)
	}
	return suite
}

// benchObservations builds a fixed set of representative mid-stream MPC
// decisions over the full ten-rung ladder: varied buffer levels, histories,
// and path speeds.
func benchObservations(n int) []*abr.Observation {
	rng := rand.New(rand.NewSource(7))
	set := make([]*abr.Observation, n)
	for s := range set {
		horizon := make([]media.Chunk, 5)
		for i := range horizon {
			vs := make([]media.Encoding, 10)
			for q := range vs {
				vs[q] = media.Encoding{
					Size:   float64(q+1) * (2e5 + rng.Float64()*1e5),
					SSIMdB: 10 + float64(q) + rng.Float64(),
				}
			}
			horizon[i] = media.Chunk{Index: i, Versions: vs}
		}
		tput := 1e6 + rng.Float64()*20e6
		hist := make([]abr.ChunkRecord, abr.HistoryLen)
		for i := range hist {
			size := 3e5 + rng.Float64()*2e6
			hist[i] = abr.ChunkRecord{
				Size:      size,
				TransTime: size * 8 / (tput * (0.7 + 0.6*rng.Float64())),
				SSIMdB:    12 + 4*rng.Float64(),
				Quality:   rng.Intn(10),
			}
		}
		set[s] = &abr.Observation{
			ChunkIndex:  len(hist),
			Buffer:      rng.Float64() * 15,
			BufferCap:   15,
			LastQuality: hist[len(hist)-1].Quality,
			LastSSIM:    hist[len(hist)-1].SSIMdB,
			History:     hist,
			Horizon:     horizon,
		}
	}
	return set
}

// BenchmarkMPCDecision measures the full Fugu serving unit: one per-stream
// controller (predictor construction included, as the platform creates one
// per stream) making a run of chunk decisions on the production path — one
// batched TTP call per horizon net feeding the factored value iteration.
// The ns/decision metric is the headline before/after number recorded in
// CHANGES.md. The seed planner's timing is internal/abr's
// BenchmarkMPCDecisionHM/reference.
func BenchmarkMPCDecision(b *testing.B) {
	ttp := core.NewTTP(rand.New(rand.NewSource(1)), core.DefaultHorizon, nil,
		core.DefaultFeatures(), core.KindTransTime)
	obsSet := benchObservations(8)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := core.NewFugu(ttp)
			for _, obs := range obsSet {
				m.Choose(obs)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obsSet)), "ns/decision")
	})
}

func BenchmarkFig1PrimaryExperiment(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "Fugu" {
				b.ReportMetric(100*r.StallRatio.Point, "fugu-stall-%")
				b.ReportMetric(r.SSIM.Point, "fugu-ssim-dB")
				b.ReportMetric(r.SSIMVar, "fugu-dssim-dB")
			}
		}
	}
}

func BenchmarkFig2ThroughputEvolution(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		series, err := s.Fig2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(series.CS2PLevels), "cs2p-levels")
		b.ReportMetric(float64(series.PufferLevels), "puffer-levels")
	}
}

func BenchmarkFig3VBRVariation(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		min, max := rows[0].SizeTopMB, rows[0].SizeTopMB
		for _, r := range rows {
			if r.SizeTopMB < min {
				min = r.SizeTopMB
			}
			if r.SizeTopMB > max {
				max = r.SizeTopMB
			}
		}
		b.ReportMetric(max/min, "size-spread-x")
	}
}

func BenchmarkFig4SSIMPerByte(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig4(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var fuguEff, mpcEff float64
		for _, r := range rows {
			if r.MeanBitrate <= 0 {
				continue
			}
			switch r.Name {
			case "Fugu":
				fuguEff = r.SSIM.Point / (r.MeanBitrate / 1e6)
			case "MPC-HM":
				mpcEff = r.SSIM.Point / (r.MeanBitrate / 1e6)
			}
		}
		b.ReportMetric(fuguEff, "fugu-dB-per-Mbps")
		b.ReportMetric(mpcEff, "mpc-dB-per-Mbps")
	}
}

func BenchmarkFig5Catalog(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if err := s.Fig5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7TTPAblation(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig7(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Variant {
			case "Full TTP":
				b.ReportMetric(r.CrossEntropy, "full-CE")
			case "Linear":
				b.ReportMetric(r.CrossEntropy, "linear-CE")
			case "Throughput Predictor":
				b.ReportMetric(r.CrossEntropy, "tput-CE")
			}
		}
	}
}

func BenchmarkFig8SlowPaths(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		_, slow, err := s.Fig8(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range slow {
			if r.Name == "Fugu" {
				b.ReportMetric(100*r.StallRatio.Point, "slow-fugu-stall-%")
				b.ReportMetric(r.SSIM.Point, "slow-fugu-ssim-dB")
			}
		}
	}
}

func BenchmarkFig9ColdStart(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig9(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "Fugu" {
				b.ReportMetric(r.MeanStartup.Point, "fugu-startup-s")
				b.ReportMetric(r.MeanFirstSSIM.Point, "fugu-first-ssim-dB")
			}
		}
	}
}

func BenchmarkFig10SessionDurations(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig10(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "Fugu" {
				b.ReportMetric(r.MeanDuration.Point/60, "fugu-mean-min")
				b.ReportMetric(r.TailP, "fugu-tail-p")
			}
		}
	}
}

func BenchmarkFig11EmulationVsReal(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := s.Fig11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Real {
			if r.Name == "Emulation-trained Fugu" {
				b.ReportMetric(100*r.StallRatio.Point, "emufugu-real-stall-%")
			}
			if r.Name == "Fugu" {
				b.ReportMetric(100*r.StallRatio.Point, "fugu-real-stall-%")
			}
		}
	}
}

func BenchmarkFigA1Consort(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		arms, err := s.FigA1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, a := range arms {
			total += a.Considered
		}
		b.ReportMetric(float64(total), "considered-streams")
	}
}

func BenchmarkSec34ConfidenceIntervals(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rel, err := s.Sec34(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rel["Fugu"], "fugu-ci-halfwidth-%")
	}
}

func BenchmarkSec46StaleModels(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Sec46(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		overlap := 0.0
		if len(rows) > 0 && rows[0].Overlapped {
			overlap = 1.0
		}
		b.ReportMetric(overlap, "cis-overlap")
	}
}

func BenchmarkDriftStaleness(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.FigDrift(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// rows[0] is day 1, identical by construction; day 2 is the first
		// day the models can differ.
		for _, r := range rows {
			if r.Day == 2 {
				b.ReportMetric(r.GapPP, "frozen-gap-pp-day2")
			}
		}
		if len(rows) > 0 {
			b.ReportMetric(rows[len(rows)-1].GapPP, "frozen-gap-pp-final")
		}
	}
}

func BenchmarkFigFleetEngines(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.FigFleet(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var seq, flt float64
		for _, r := range rows {
			if !r.Identical {
				b.Fatal("fleet engine diverged from per-session engine")
			}
			switch r.Engine {
			case "per-session":
				seq = r.SessionsPerSec
			case "fleet":
				flt = r.SessionsPerSec
				b.ReportMetric(float64(r.PeakConcurrent), "peak-concurrent")
				b.ReportMetric(r.MeanBatchRows, "mean-batch-rows")
			}
		}
		b.ReportMetric(flt, "fleet-sessions/sec")
		if seq > 0 {
			b.ReportMetric(flt/seq, "fleet-speedup-x")
		}
	}
}

func BenchmarkSec53PowerAnalysis(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Sec53(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Stream-years needed to reach 95% detection (last row if never
		// reached).
		years := rows[len(rows)-1].StreamYears
		for _, r := range rows {
			if r.DetectionRate >= 0.95 {
				years = r.StreamYears
				break
			}
		}
		b.ReportMetric(years, "years-to-detect-15%")
	}
}
