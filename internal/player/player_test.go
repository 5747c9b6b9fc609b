package player

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBufferStartupNotStall(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	// First chunk arrives before playback starts: no stall charged.
	if stall := b.CompleteChunk(3.0, 2.002); stall != 0 {
		t.Fatalf("pre-playback chunk charged stall %v", stall)
	}
	if b.Level() != 2.002 {
		t.Fatalf("level = %v, want 2.002", b.Level())
	}
	b.StartPlayback(3.0)
	if !b.Playing() || b.Startup != 3.0 {
		t.Fatalf("playback state wrong: playing=%v startup=%v", b.Playing(), b.Startup)
	}
}

func TestBufferStallAccounting(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	b.CompleteChunk(1, 2.002)
	b.StartPlayback(1)
	// Transfer of 5 s against a 2.002 s buffer: stall of ~2.998.
	stall := b.CompleteChunk(5, 2.002)
	want := 5 - 2.002
	if math.Abs(stall-want) > 1e-9 {
		t.Fatalf("stall = %v, want %v", stall, want)
	}
	if b.Stalls != 1 {
		t.Fatalf("stall events = %d, want 1", b.Stalls)
	}
	if math.Abs(b.Stalled-want) > 1e-9 {
		t.Fatalf("cumulative stall = %v, want %v", b.Stalled, want)
	}
	// After the stall the buffer holds exactly the new chunk.
	if math.Abs(b.Level()-2.002) > 1e-9 {
		t.Fatalf("level after stall = %v, want 2.002", b.Level())
	}
}

func TestBufferNoStallWhenCovered(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	b.CompleteChunk(0.5, 2.002)
	b.StartPlayback(0.5)
	b.CompleteChunk(0.5, 2.002) // level: 2.002-0.5+2.002 = 3.504
	if b.Stalls != 0 || b.Stalled != 0 {
		t.Fatal("unexpected stall")
	}
	if math.Abs(b.Level()-3.504) > 1e-9 {
		t.Fatalf("level = %v, want 3.504", b.Level())
	}
}

func TestBufferCapRespected(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	for i := 0; i < 20; i++ {
		b.CompleteChunk(0.01, 2.002)
	}
	if b.Level() > b.Cap {
		t.Fatalf("level %v exceeds cap %v", b.Level(), b.Cap)
	}
}

func TestBufferInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &Buffer{Cap: DefaultBufferCap}
		b.CompleteChunk(rng.Float64()*3, 2.002)
		b.StartPlayback(1)
		totalStall := 0.0
		for i := 0; i < 200; i++ {
			tt := rng.ExpFloat64() * 2
			stall := b.CompleteChunk(tt, 2.002)
			totalStall += stall
			if b.Level() < 0 || b.Level() > b.Cap+1e-9 {
				return false
			}
			if stall < 0 {
				return false
			}
			if w := b.RoomWait(2.002); w > 0 {
				before := b.Level()
				b.Drain(w)
				if b.Level() > before {
					return false
				}
				if b.RoomWait(2.002) > 1e-9 {
					return false
				}
			}
		}
		return math.Abs(totalStall-b.Stalled) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoomWait(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	if b.RoomWait(2.002) != 0 {
		t.Fatal("empty buffer should have room")
	}
	for i := 0; i < 10; i++ {
		b.CompleteChunk(0, 2.002)
	}
	b.StartPlayback(0)
	w := b.RoomWait(2.002)
	if w <= 0 {
		t.Fatal("full buffer should require waiting")
	}
	b.Drain(w)
	if got := b.RoomWait(2.002); math.Abs(got) > 1e-9 {
		t.Fatalf("after draining RoomWait, want 0, got %v", got)
	}
}

func TestDrainBeforePlaybackIsNoop(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	b.CompleteChunk(0, 2.002)
	b.Drain(1)
	if b.Level() != 2.002 {
		t.Fatalf("drain before playback changed level to %v", b.Level())
	}
}

func TestPlayedAccounting(t *testing.T) {
	b := &Buffer{Cap: DefaultBufferCap}
	b.CompleteChunk(1, 2.002)
	b.StartPlayback(1)
	b.CompleteChunk(1.0, 2.002) // plays 1.0
	b.Drain(0.5)                // plays 0.5
	want := 1.5
	if math.Abs(b.Played-want) > 1e-9 {
		t.Fatalf("played = %v, want %v", b.Played, want)
	}
}

func TestIntendedDurationHeavyTailed(t *testing.T) {
	m := DefaultWatchModel()
	rng := rand.New(rand.NewSource(1))
	n := 20000
	var durations []float64
	var sum float64
	for i := 0; i < n; i++ {
		d := m.IntendedDuration(rng)
		if d < 1 {
			t.Fatal("duration below floor")
		}
		durations = append(durations, d)
		sum += d
	}
	mean := sum / float64(n)
	// Median should be near the configured value.
	median := quickSelectMedian(durations)
	want := m.MedianMinutes * 60
	if median < want*0.9 || median > want*1.1 {
		t.Fatalf("median = %v, want near %v", median, want)
	}
	// Heavy tail: mean well above median.
	if mean < 1.5*median {
		t.Fatalf("mean %v vs median %v: not heavy-tailed", mean, median)
	}
}

func quickSelectMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	// simple nth-element via sort-free partition would be overkill here
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestAbandonOnStallMonotone(t *testing.T) {
	m := DefaultWatchModel()
	prob := func(stall float64) float64 {
		rng := rand.New(rand.NewSource(2))
		hits := 0
		for i := 0; i < 5000; i++ {
			if m.AbandonOnStall(rng, stall) {
				hits++
			}
		}
		return float64(hits) / 5000
	}
	if m.AbandonOnStall(rand.New(rand.NewSource(1)), 0) {
		t.Fatal("zero stall should never abandon")
	}
	pSmall, pBig := prob(1), prob(30)
	if pBig <= pSmall {
		t.Fatalf("longer stalls must abandon more: %v vs %v", pSmall, pBig)
	}
}

func TestLeaveAfterChunkQualityCoupling(t *testing.T) {
	m := DefaultWatchModel()
	prob := func(ssim float64) float64 {
		rng := rand.New(rand.NewSource(3))
		hits := 0
		for i := 0; i < 200000; i++ {
			if m.LeaveAfterChunk(rng, ssim) {
				hits++
			}
		}
		return float64(hits) / 200000
	}
	pGood, pBad := prob(17), prob(12)
	if pBad <= pGood {
		t.Fatalf("worse quality must raise leave hazard: good=%v bad=%v", pGood, pBad)
	}
}

func TestStartupPatiencePositive(t *testing.T) {
	m := DefaultWatchModel()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if m.StartupPatience(rng) < 0 {
			t.Fatal("negative patience")
		}
	}
}

func TestWatchModelDeterministicGivenSeed(t *testing.T) {
	m := DefaultWatchModel()
	a := m.IntendedDuration(rand.New(rand.NewSource(9)))
	b := m.IntendedDuration(rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatal("same seed gave different durations")
	}
}
