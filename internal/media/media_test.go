package media

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDefaultLadderShape(t *testing.T) {
	ladder := DefaultLadder()
	if len(ladder) != 10 {
		t.Fatalf("ladder has %d rungs, want 10", len(ladder))
	}
	if ladder[0].AvgBitrate != 200e3 {
		t.Fatalf("bottom rung bitrate = %v, want 200e3", ladder[0].AvgBitrate)
	}
	if ladder[9].AvgBitrate != 5500e3 {
		t.Fatalf("top rung bitrate = %v, want 5500e3", ladder[9].AvgBitrate)
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].AvgBitrate <= ladder[i-1].AvgBitrate {
			t.Fatalf("rung %d bitrate not increasing", i)
		}
		if ladder[i].BaseSSIMdB <= ladder[i-1].BaseSSIMdB {
			t.Fatalf("rung %d base SSIM not increasing", i)
		}
	}
	if math.Abs(ladder[0].BaseSSIMdB-10.5) > 1e-9 {
		t.Fatalf("bottom rung SSIM = %v, want 10.5", ladder[0].BaseSSIMdB)
	}
	if math.Abs(ladder[9].BaseSSIMdB-17.5) > 1e-9 {
		t.Fatalf("top rung SSIM = %v, want 17.5", ladder[9].BaseSSIMdB)
	}
}

func TestSourceDeterministic(t *testing.T) {
	p, err := FindProfile("nbc")
	if err != nil {
		t.Fatal(err)
	}
	a := NewSource(p, 42).Take(50)
	b := NewSource(p, 42).Take(50)
	for i := range a {
		for v := range a[i].Versions {
			if a[i].Versions[v] != b[i].Versions[v] {
				t.Fatalf("chunk %d version %d differs between same-seed sources", i, v)
			}
		}
	}
	c := NewSource(p, 43).Take(50)
	same := true
	for i := range a {
		if a[i].Versions[0] != c[i].Versions[0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical chunk streams")
	}
}

func TestChunkMonotonicity(t *testing.T) {
	// Property: within every chunk, size strictly increases with rung
	// and SSIM never decreases. ABR schemes depend on this.
	for _, p := range Channels() {
		src := NewSource(p, 7)
		for n := 0; n < 500; n++ {
			ch := src.Next()
			for i := 1; i < len(ch.Versions); i++ {
				if ch.Versions[i].Size <= ch.Versions[i-1].Size {
					t.Fatalf("%s chunk %d: size not increasing at rung %d", p.Name, n, i)
				}
				if ch.Versions[i].SSIMdB < ch.Versions[i-1].SSIMdB {
					t.Fatalf("%s chunk %d: SSIM decreasing at rung %d", p.Name, n, i)
				}
			}
		}
	}
}

func TestChunkSizesPositiveAndFinite(t *testing.T) {
	f := func(seed int64) bool {
		p := Channels()[int(uint64(seed)%uint64(len(Channels())))]
		src := NewSource(p, seed)
		for n := 0; n < 50; n++ {
			ch := src.Next()
			for _, v := range ch.Versions {
				if !(v.Size > 0) || math.IsInf(v.Size, 0) || math.IsNaN(v.Size) {
					return false
				}
				if !(v.SSIMdB >= 1) || math.IsNaN(v.SSIMdB) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVBRSizesVaryWithinStream(t *testing.T) {
	// The paper's Figure 3a: chunk sizes within one encoding setting vary
	// substantially. Check coefficient of variation is non-trivial.
	p, _ := FindProfile("nbc")
	src := NewSource(p, 99)
	chunks := src.Take(300)
	for _, rung := range []int{0, 9} {
		var sum, sum2 float64
		for _, ch := range chunks {
			s := ch.Versions[rung].Size
			sum += s
			sum2 += s * s
		}
		n := float64(len(chunks))
		mean := sum / n
		std := math.Sqrt(sum2/n - mean*mean)
		cv := std / mean
		if cv < 0.10 {
			t.Errorf("rung %d size CV = %.3f, want >= 0.10 (VBR variation)", rung, cv)
		}
		if cv > 1.5 {
			t.Errorf("rung %d size CV = %.3f, implausibly large", rung, cv)
		}
	}
}

func TestMeanBitrateNearNominal(t *testing.T) {
	p, _ := FindProfile("nbc")
	src := NewSource(p, 5)
	chunks := src.Take(3000)
	for rung, want := range []float64{200e3, 400e3} {
		var sum float64
		for _, ch := range chunks {
			sum += ch.Versions[rung].Bitrate()
		}
		got := sum / float64(len(chunks))
		if got < want*0.7 || got > want*1.5 {
			t.Errorf("rung %d mean bitrate = %.0f, want near %.0f", rung, got, want)
		}
	}
}

func TestSSIMVariesWithComplexity(t *testing.T) {
	// Higher-complexity chunks should have lower SSIM at the same rung.
	p, _ := FindProfile("fox-sports")
	src := NewSource(p, 3)
	var loSum, hiSum float64
	var loN, hiN int
	for range 2000 {
		ch := src.Next()
		if src.logC < math.Log(0.8) {
			loSum += ch.Versions[9].SSIMdB
			loN++
		} else if src.logC > math.Log(1.25) {
			hiSum += ch.Versions[9].SSIMdB
			hiN++
		}
	}
	if loN == 0 || hiN == 0 {
		t.Fatalf("complexity process did not span range: lo=%d hi=%d", loN, hiN)
	}
	if loSum/float64(loN) <= hiSum/float64(hiN) {
		t.Fatal("low-complexity chunks should have higher SSIM than high-complexity ones")
	}
}

func TestClipLoops(t *testing.T) {
	p, _ := FindProfile("nbc")
	clip := RecordClip(p, 600, 1) // 10-minute clip, as in the paper
	n := len(clip.Chunks)
	wantN := int(math.Ceil(600 / ChunkDuration))
	if n != wantN {
		t.Fatalf("clip has %d chunks, want %d", n, wantN)
	}
	a := clip.At(3)
	b := clip.At(3 + n)
	if a.Versions[5] != b.Versions[5] {
		t.Fatal("clip did not loop identically")
	}
}

func TestFindProfile(t *testing.T) {
	if _, err := FindProfile("nbc"); err != nil {
		t.Fatalf("nbc should exist: %v", err)
	}
	if _, err := FindProfile("nope"); err == nil {
		t.Fatal("expected error for unknown channel")
	}
	if len(Channels()) != 6 {
		t.Fatalf("want 6 channels like Puffer, got %d", len(Channels()))
	}
}

func TestComplexityAutocorrelation(t *testing.T) {
	// Log-complexity must be positively autocorrelated (scenes persist).
	p, _ := FindProfile("pbs")
	src := NewSource(p, 11)
	xs := make([]float64, 4000)
	for i := range xs {
		src.Next()
		xs[i] = src.logC
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var num, den float64
	for i := 0; i < len(xs)-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
		den += (xs[i] - mean) * (xs[i] - mean)
	}
	rho := num / den
	if rho < 0.5 {
		t.Fatalf("lag-1 autocorrelation = %.3f, want >= 0.5", rho)
	}
}

func TestTakeCount(t *testing.T) {
	src := NewSource(Channels()[0], 1)
	chunks := src.Take(17)
	if len(chunks) != 17 {
		t.Fatalf("Take(17) returned %d chunks", len(chunks))
	}
	ref := NewSource(Channels()[0], 1)
	for i, ch := range chunks {
		if !slices.Equal(ch.Versions, ref.Next().Versions) {
			t.Fatalf("chunk %d differs from the same source's Next call %d", i, i)
		}
	}
}

func TestEncodingBitrate(t *testing.T) {
	e := Encoding{Size: ChunkDuration * 1e6 / 8}
	if got := e.Bitrate(); math.Abs(got-1e6) > 1e-6 {
		t.Fatalf("Bitrate = %v, want 1e6", got)
	}
}

func TestStationaryStdGuard(t *testing.T) {
	p := Profile{ARCoeff: 1.0, Volatility: 0.2}
	if got := p.stationaryStd(); got != 0.2 {
		t.Fatalf("degenerate AR coefficient: stationaryStd = %v, want fallback 0.2", got)
	}
}

var sinkChunk Chunk

func BenchmarkSourceNext(b *testing.B) {
	src := NewSource(Channels()[0], rand.Int63())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkChunk = src.Next()
	}
}
