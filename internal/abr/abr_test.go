package abr

import (
	"math"
	"testing"
	"testing/quick"

	"puffer/internal/media"
)

// testChunks builds a horizon of n identical-ladder chunks with clean
// geometry: version q has size (q+1)*base bytes and SSIM 10+q dB.
func testChunks(n int, base float64) []media.Chunk {
	chunks := make([]media.Chunk, n)
	for i := range chunks {
		vs := make([]media.Encoding, 10)
		for q := range vs {
			vs[q] = media.Encoding{Size: float64(q+1) * base, SSIMdB: 10 + float64(q)}
		}
		chunks[i] = media.Chunk{Index: i, Versions: vs}
	}
	return chunks
}

func obsWith(buffer float64, hist []ChunkRecord, horizon []media.Chunk) *Observation {
	return &Observation{
		ChunkIndex:  len(hist), // one decision per completed chunk
		Buffer:      buffer,
		BufferCap:   15,
		LastQuality: -1,
		History:     hist,
		Horizon:     horizon,
	}
}

// histAtThroughput builds n history records at a steady throughput (bits/s).
func histAtThroughput(n int, tputBps float64) []ChunkRecord {
	h := make([]ChunkRecord, n)
	for i := range h {
		size := 1e6 * (0.8 + 0.05*float64(i%3))
		h[i] = ChunkRecord{Size: size, TransTime: size * 8 / tputBps, SSIMdB: 14, Quality: 5}
	}
	return h
}

func TestBinIndexEdges(t *testing.T) {
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {0.1, 0}, {0.2499, 0},
		{0.25, 1}, {0.5, 1}, {0.7499, 1},
		{0.75, 2}, {1.24, 2},
		{1.25, 3},
		{9.6, 19}, {9.74, 19},
		{9.75, 20}, {50, 20}, {1e9, 20},
		{-1, 0}, {1e300, 20}, {math.Inf(1), 20}, {math.Inf(-1), 0}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := BinIndex(c.t); got != c.want {
			t.Errorf("BinIndex(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestBinValueCentersAndTails(t *testing.T) {
	if got := BinValue(0); got != 0.125 {
		t.Fatalf("BinValue(0) = %v", got)
	}
	if got := BinValue(1); got != 0.5 {
		t.Fatalf("BinValue(1) = %v, want 0.5", got)
	}
	if got := BinValue(19); got != 9.5 {
		t.Fatalf("BinValue(19) = %v, want 9.5", got)
	}
	if got := BinValue(20); got != 14.0 {
		t.Fatalf("BinValue(20) = %v, want a penalizing 14 (near the buffer cap)", got)
	}
}

func TestBinRoundtripProperty(t *testing.T) {
	// BinValue(BinIndex(t)) must land in the same bin as t.
	f := func(raw float64) bool {
		tt := math.Abs(math.Mod(raw, 15))
		return BinIndex(BinValue(BinIndex(tt))) == BinIndex(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQoEWeights(t *testing.T) {
	w := DefaultQoEWeights()
	if got := w.Chunk(16, 14, 0, true); got != 14 {
		t.Fatalf("QoE = %v, want 16 - |16-14| = 14", got)
	}
	if got := w.Chunk(16, 14, 0.1, true); math.Abs(got-4) > 1e-9 {
		t.Fatalf("QoE with stall = %v, want 4", got)
	}
	if got := w.Chunk(16, 99, 0, false); got != 16 {
		t.Fatalf("first-chunk QoE = %v, want 16 (no variation term)", got)
	}
}

func TestHarmonicMeanPredictorMatchesHand(t *testing.T) {
	p := &HarmonicMeanPredictor{}
	hist := []ChunkRecord{
		{Size: 1e6, TransTime: 1},   // 8 Mbps
		{Size: 1e6, TransTime: 2},   // 4 Mbps
		{Size: 1e6, TransTime: 0.5}, // 16 Mbps
	}
	obs := obsWith(10, hist, testChunks(5, 1e5))
	want := 3.0 / (1.0/8e6 + 1.0/4e6 + 1.0/16e6)
	if got := p.estimate(obs); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("HM estimate = %v, want %v", got, want)
	}
}

func TestHarmonicMeanUsesLastFiveOnly(t *testing.T) {
	p := &HarmonicMeanPredictor{}
	hist := histAtThroughput(8, 4e6)
	// Make the 3 oldest absurdly fast; they must be ignored.
	for i := 0; i < 3; i++ {
		hist[i].TransTime = hist[i].Size * 8 / 1e9
	}
	obs := obsWith(10, hist, testChunks(5, 1e5))
	got := p.estimate(obs)
	if got > 5e6 {
		t.Fatalf("HM estimate %v contaminated by samples outside the window", got)
	}
}

func TestRobustDiscountsBelowPlainHM(t *testing.T) {
	plain := &HarmonicMeanPredictor{}
	robust := &HarmonicMeanPredictor{Robust: true}
	// Volatile history => large max error => big discount.
	hist := []ChunkRecord{
		{Size: 1e6, TransTime: 1},
		{Size: 1e6, TransTime: 4},
		{Size: 1e6, TransTime: 0.5},
		{Size: 1e6, TransTime: 3},
		{Size: 1e6, TransTime: 0.8},
		{Size: 1e6, TransTime: 2.5},
	}
	obs := obsWith(10, hist, testChunks(5, 1e5))
	ph, rh := plain.estimate(obs), robust.estimate(obs)
	if !(rh < ph) {
		t.Fatalf("robust estimate %v not below plain %v", rh, ph)
	}
}

func TestPredictorNoHistoryIsConservative(t *testing.T) {
	// With no samples, the predictor assumes a slow default throughput,
	// so predicted time must scale with size (a fixed worst-case time
	// would make every rung look equally bad and select the top one).
	p := &HarmonicMeanPredictor{}
	obs := obsWith(10, nil, testChunks(5, 1e5))
	dists := make([]float64, 2*NumBins)
	p.PredictDistBatch(obs, 0, []float64{1e6, 5e4}, dists)
	for q, want := range []struct {
		name string
		tt   float64
	}{
		{"1MB", 8.0}, // 1 MB at 1 Mbit/s = 8 s
		{"50KB", 0.4},
	} {
		row := dists[q*NumBins : (q+1)*NumBins]
		for k, v := range row {
			hot := 0.0
			if k == BinIndex(want.tt) {
				hot = 1
			}
			if v != hot {
				t.Fatalf("no-history dist for %s = %v, want all mass at the %v s bin", want.name, row, want.tt)
			}
		}
	}
	// First-chunk choice must therefore be a cautious low rung.
	m := NewMPCHM()
	if q := m.Choose(obsWith(0, nil, testChunks(5, 2.5e5))); q > 1 {
		t.Fatalf("cold-start MPC chose rung %d, want a cautious low rung", q)
	}
}

func TestMPCPicksHighQualityOnFastPath(t *testing.T) {
	m := NewMPCHM()
	hist := histAtThroughput(8, 60e6) // very fast
	obs := obsWith(12, hist, testChunks(5, 1e5))
	if q := m.Choose(obs); q != 9 {
		t.Fatalf("fast path, full buffer: chose %d, want 9", q)
	}
}

func TestMPCPicksLowQualityOnSlowPathEmptyBuffer(t *testing.T) {
	m := NewMPCHM()
	hist := histAtThroughput(8, 0.4e6) // slow
	obs := obsWith(0.5, hist, testChunks(5, 2.5e5))
	q := m.Choose(obs)
	if q > 1 {
		t.Fatalf("slow path, near-empty buffer: chose %d, want <= 1", q)
	}
}

func TestMPCMonotoneInThroughput(t *testing.T) {
	// More throughput should never reduce the chosen quality, all else
	// equal.
	m := NewMPCHM()
	prev := -1
	for _, tput := range []float64{0.5e6, 1e6, 2e6, 4e6, 8e6, 16e6, 32e6} {
		m.Reset()
		obs := obsWith(8, histAtThroughput(8, tput), testChunks(5, 2.5e5))
		q := m.Choose(obs)
		if q < prev {
			t.Fatalf("quality dropped from %d to %d when throughput rose to %v", prev, q, tput)
		}
		prev = q
	}
}

func TestMPCMonotoneInBuffer(t *testing.T) {
	m := NewMPCHM()
	prev := -1
	for _, buf := range []float64{0.5, 2, 5, 9, 14} {
		m.Reset()
		obs := obsWith(buf, histAtThroughput(8, 2.5e6), testChunks(5, 2.5e5))
		q := m.Choose(obs)
		if q < prev {
			t.Fatalf("quality dropped from %d to %d when buffer rose to %v", prev, q, buf)
		}
		prev = q
	}
}

func TestRobustEstimateNeverAbovePlain(t *testing.T) {
	// RobustMPC's lower-bounding invariant: its throughput estimate can
	// never exceed the plain harmonic mean in the same state. (The
	// resulting *plans* need not be pointwise comparable — bin
	// quantization and the quality-variation term are not monotone.)
	f := func(seed int64) bool {
		tput := 0.5e6 + float64(uint64(seed)%100)/100*20e6
		hist := histAtThroughput(8, tput)
		hist[3].TransTime *= 2.5
		hist[6].TransTime *= 0.6
		plain := &HarmonicMeanPredictor{}
		robust := &HarmonicMeanPredictor{Robust: true}
		obs := obsWith(7, hist, testChunks(5, 2.5e5))
		return robust.estimate(obs) <= plain.estimate(obs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMPCAvoidsStallWhenTailRisky(t *testing.T) {
	// With a point predictor saying "the big version takes 4 s" and a
	// 2-second buffer, MPC must not choose it when a cheaper version
	// avoids the stall.
	m := NewMPCHM()
	// History at exactly 2 Mbps: top version (1e6 bytes => 8 Mbit) takes
	// 4 s; version 0 (1e5 bytes) takes 0.4 s.
	obs := obsWith(2.0, histAtThroughput(8, 2e6), testChunks(5, 1e5))
	q := m.Choose(obs)
	top := testChunks(1, 1e5)[0].Versions[q]
	predicted := top.Size * 8 / 2e6
	if predicted > 2.0+media.ChunkDuration {
		t.Fatalf("chose rung %d with predicted time %v on a 2 s buffer", q, predicted)
	}
}

func TestBBARateMap(t *testing.T) {
	b := NewBBA()
	horizon := testChunks(1, 2.5e5) // bitrates ~1..10 Mbps
	low := b.Choose(obsWith(1, nil, horizon))
	if low != 0 {
		t.Fatalf("below reservoir: chose %d, want 0", low)
	}
	high := b.Choose(obsWith(14.5, nil, horizon))
	if high != 9 {
		t.Fatalf("above reservoir+cushion: chose %d, want 9", high)
	}
	mid := b.Choose(obsWith(8, nil, horizon))
	if mid <= low || mid >= high {
		t.Fatalf("mid-buffer choice %d not between extremes", mid)
	}
}

func TestBBAMonotoneInBuffer(t *testing.T) {
	b := NewBBA()
	horizon := testChunks(1, 2.5e5)
	prev := -1
	for buf := 0.0; buf <= 15; buf += 0.5 {
		q := b.Choose(obsWith(buf, nil, horizon))
		if q < prev {
			t.Fatalf("BBA quality dropped from %d to %d at buffer %v", prev, q, buf)
		}
		prev = q
	}
}

func TestBBAIgnoresThroughput(t *testing.T) {
	// Buffer-based means exactly that: identical buffer, wildly
	// different history => identical choice.
	b := NewBBA()
	horizon := testChunks(1, 2.5e5)
	q1 := b.Choose(obsWith(7, histAtThroughput(8, 100e6), horizon))
	q2 := b.Choose(obsWith(7, histAtThroughput(8, 0.1e6), horizon))
	if q1 != q2 {
		t.Fatalf("BBA choices differ with throughput: %d vs %d", q1, q2)
	}
}

func TestRateBasedTracksThroughput(t *testing.T) {
	r := NewRateBased()
	horizon := testChunks(1, 2.5e5) // version q bitrate = (q+1) Mbps
	if q := r.Choose(obsWith(8, nil, horizon)); q != 0 {
		t.Fatalf("no history: chose %d, want 0", q)
	}
	r.Reset()
	obs := obsWith(8, histAtThroughput(8, 5e6), horizon)
	q := r.Choose(obs)
	// 0.8 * 5 Mbps = 4 Mbps => rung with bitrate <= 4 Mbps => index 3.
	if q != 3 {
		t.Fatalf("5 Mbps path: chose %d, want 3", q)
	}
}

func TestBOLAMonotoneInBuffer(t *testing.T) {
	bo := NewBOLA()
	horizon := testChunks(1, 2.5e5)
	prev := -1
	for buf := 0.0; buf <= 15; buf += 0.5 {
		q := bo.Choose(obsWith(buf, nil, horizon))
		if q < prev {
			t.Fatalf("BOLA quality dropped from %d to %d at buffer %v", prev, q, buf)
		}
		prev = q
	}
	if q := bo.Choose(obsWith(14.9, nil, horizon)); q != 9 {
		t.Fatalf("BOLA at full buffer chose %d, want 9", q)
	}
}

func TestChunkRecordThroughput(t *testing.T) {
	r := ChunkRecord{Size: 1e6, TransTime: 2}
	if got := r.Throughput(); got != 4e6 {
		t.Fatalf("Throughput = %v, want 4e6", got)
	}
	if got := (ChunkRecord{Size: 1e6}).Throughput(); got != 0 {
		t.Fatalf("zero-time throughput = %v, want 0", got)
	}
}

func TestCatalogMatchesFigure5(t *testing.T) {
	cat := Catalog()
	if len(cat) != 6 {
		t.Fatalf("catalog has %d rows, want 6 (Figure 5)", len(cat))
	}
	if cat[5].Name != "Fugu" || cat[5].HowTrained != "supervised learning in situ" {
		t.Fatalf("last row should be in-situ Fugu, got %+v", cat[5])
	}
}

func TestMPCHandlesShortHorizon(t *testing.T) {
	m := NewMPCHM()
	obs := obsWith(5, histAtThroughput(8, 5e6), testChunks(2, 2.5e5))
	q := m.Choose(obs) // must not panic with horizon shorter than 5
	if q < 0 || q > 9 {
		t.Fatalf("invalid rung %d", q)
	}
	empty := obsWith(5, nil, nil)
	if q := m.Choose(empty); q != 0 {
		t.Fatalf("empty horizon should fall back to 0, got %d", q)
	}
}

func TestAlgorithmsImplementInterface(t *testing.T) {
	algs := []Algorithm{NewBBA(), NewMPCHM(), NewRobustMPCHM(), NewRateBased(), NewBOLA()}
	names := map[string]bool{}
	for _, a := range algs {
		if a.Name() == "" {
			t.Fatal("empty algorithm name")
		}
		if names[a.Name()] {
			t.Fatalf("duplicate name %q", a.Name())
		}
		names[a.Name()] = true
		a.Reset()
	}
}
