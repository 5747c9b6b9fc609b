package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestConcurrencySeries(t *testing.T) {
	// Sessions: [0,10), [2,6), [2,4), [10,12) — peak 3 in [2,4).
	c := ConcurrencyOf([]float64{0, 2, 2, 10}, []float64{10, 6, 4, 12})
	if c.Peak != 3 {
		t.Fatalf("Peak = %d, want 3", c.Peak)
	}
	if c.Span != 12 {
		t.Fatalf("Span = %v, want 12", c.Span)
	}
	// Time-weighted mean over [0,12): (1*2 + 3*2 + 2*2 + 1*4 + 1*2)/12.
	want := (1.0*2 + 3*2 + 2*2 + 1*4 + 1*2) / 12
	if math.Abs(c.Mean-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", c.Mean, want)
	}
}

func TestConcurrencySeriesHandoff(t *testing.T) {
	// A session ending exactly when another starts must not double-count.
	if c := ConcurrencyOf([]float64{0, 5}, []float64{5, 8}); c.Peak != 1 {
		t.Fatalf("Peak = %d, want 1 (no double count at handoff)", c.Peak)
	}
}

func TestConcurrencySeriesEmpty(t *testing.T) {
	if c := ConcurrencyOf(nil, nil); c != (Concurrency{}) {
		t.Fatalf("empty record = %+v, want all zeros", c)
	}
	// An interval with end < start is empty; one with end == start lasts
	// no time.
	if c := ConcurrencyOf([]float64{3, 4}, []float64{2, 4}); c.Peak != 0 || c.Mean != 0 || c.Span != 0 {
		t.Fatalf("empty intervals = %+v, want all zeros", c)
	}
}

// TestConcurrencyOracle holds the summary to a brute-force count: at every
// distinct instant, the sessions with start <= t < end. Times are drawn on
// a coarse grid so that handoffs (one end equal to another start),
// simultaneous arrivals and end < start all occur.
func TestConcurrencyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		starts, ends := make([]float64, n), make([]float64, n)
		for i := range starts {
			starts[i] = float64(rng.Intn(10)) / 2
			ends[i] = float64(rng.Intn(10)) / 2
		}
		var times []float64
		for i := range starts {
			if ends[i] >= starts[i] {
				times = append(times, starts[i], ends[i])
			}
		}
		sort.Float64s(times)
		var want Concurrency
		var area float64
		var at []float64 // distinct instants
		for i, x := range times {
			if i == 0 || x != times[i-1] {
				at = append(at, x)
			}
		}
		count := func(x float64) int {
			k := 0
			for i := range starts {
				if starts[i] <= x && x < ends[i] {
					k++
				}
			}
			return k
		}
		for i, x := range at {
			want.Peak = max(want.Peak, count(x))
			if i > 0 {
				area += float64(float64(count(at[i-1])) * (x - at[i-1]))
			}
		}
		if len(at) > 0 {
			want.Span = at[len(at)-1] - at[0]
		}
		if want.Span > 0 {
			want.Mean = area / want.Span
		}
		if got := ConcurrencyOf(starts, ends); got != want {
			t.Fatalf("intervals %v %v: summary %+v, brute force %+v", starts, ends, got, want)
		}
	}
}
