package stats

import (
	"math/rand"
	"reflect"
	"testing"
)

// randPoints draws n heavy-tailed-ish stream points.
func randPoints(rng *rand.Rand, n int) []StreamPoint {
	pts := make([]StreamPoint, n)
	for i := range pts {
		w := 30 + rng.ExpFloat64()*300
		s := 0.0
		if rng.Float64() < 0.12 {
			s = rng.ExpFloat64() * 15
		}
		pts[i] = StreamPoint{Watch: w, Stall: s}
	}
	return pts
}

// TestStreamAccMergeEqualsSingle is the sharded-aggregation invariant:
// folding streams through per-shard accumulators and merging in shard order
// must reproduce byte-identical bootstrap results to one big accumulator.
func TestStreamAccMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 500)

	var single StreamAcc
	for _, p := range pts {
		single.Add(p)
	}

	var merged StreamAcc
	for at := 0; at < len(pts); at += 64 { // 64-stream shards
		end := at + 64
		if end > len(pts) {
			end = len(pts)
		}
		var shard StreamAcc
		for _, p := range pts[at:end] {
			shard.Add(p)
		}
		merged.Merge(&shard)
	}

	if len(single.Points) != len(merged.Points) {
		t.Fatalf("lengths differ: %d vs %d", len(single.Points), len(merged.Points))
	}
	if StallRatio(single.Points) != StallRatio(merged.Points) {
		t.Fatalf("stall ratios differ: %v vs %v", StallRatio(single.Points), StallRatio(merged.Points))
	}
	a := single.Bootstrap(rand.New(rand.NewSource(9)))
	b := merged.Bootstrap(rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatalf("bootstrap intervals differ: %+v vs %+v", a, b)
	}
	if c := BootstrapStallRatio(rand.New(rand.NewSource(9)), pts, 400); a != c {
		t.Fatalf("merge-then-bootstrap %+v != direct bootstrap %+v", a, c)
	}
}

func TestWeightedAccMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var single, left, right WeightedAcc
	for i := 0; i < 300; i++ {
		v, w := rng.NormFloat64()*2+14, 1+rng.ExpFloat64()*100
		single.Add(v, w)
		if i < 170 {
			left.Add(v, w)
		} else {
			right.Add(v, w)
		}
	}
	var merged WeightedAcc
	merged.Merge(&left)
	merged.Merge(&right)
	if !reflect.DeepEqual(single, merged) {
		t.Fatal("merged accumulator state differs from single-pass state")
	}
	if single.Interval() != merged.Interval() {
		t.Fatal("merged interval differs from single-pass interval")
	}
}

func TestWeightedAccUnit(t *testing.T) {
	var a WeightedAcc
	a.AddUnit(1)
	a.AddUnit(3)
	iv := a.Interval()
	if iv.Point != 2 {
		t.Fatalf("unit-weight mean = %v, want 2", iv.Point)
	}
	if got := MeanSE([]float64{1, 3}); iv != got {
		t.Fatalf("AddUnit interval %+v != MeanSE %+v", iv, got)
	}
}

func TestStreamAccStreamYears(t *testing.T) {
	var a StreamAcc
	a.Add(StreamPoint{Watch: 365.25 * 24 * 3600, Stall: 0})
	if got := a.StreamYears(); got != 1 {
		t.Fatalf("StreamYears = %v, want 1", got)
	}
}
