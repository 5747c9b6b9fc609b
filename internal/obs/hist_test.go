package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func withEnabled(t *testing.T) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(prev) })
}

// TestBucketBoundaries: every value maps into a bucket whose [Low, High]
// range contains it, adjacent buckets tile the int64 range with no gaps or
// overlaps, values below histSubCount are exact, and above that the bucket
// width never exceeds Low/histSubCount (the 3.125% resolution guarantee).
func TestBucketBoundaries(t *testing.T) {
	// Exhaustive over the exact region and the first octaves, then probe
	// values across the full range.
	var probes []int64
	for v := int64(0); v < 4*histSubCount; v++ {
		probes = append(probes, v)
	}
	for shift := uint(7); shift < 63; shift++ {
		base := int64(1) << shift
		probes = append(probes, base-1, base, base+1, base+base/3, math.MaxInt64>>(62-shift))
	}
	probes = append(probes, math.MaxInt64-1, math.MaxInt64)
	for _, v := range probes {
		idx := bucketIndex(v)
		lo, hi := bucketLow(idx), bucketHigh(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d mapped to bucket %d [%d, %d] which does not contain it", v, idx, lo, hi)
		}
		if v < histSubCount && lo != hi {
			t.Fatalf("value %d should land in an exact bucket, got [%d, %d]", v, lo, hi)
		}
		if v >= histSubCount {
			if width := hi - lo; width > lo/histSubCount {
				t.Fatalf("bucket %d [%d, %d] width %d exceeds Low/%d = %d", idx, lo, hi, width, histSubCount, lo/histSubCount)
			}
		}
	}
	// Tiling: bucket i's High + 1 == bucket i+1's Low, all the way up.
	for idx := 0; idx < histNumBuckets-1; idx++ {
		if bucketHigh(idx)+1 != bucketLow(idx+1) {
			t.Fatalf("buckets %d and %d do not tile: high %d, next low %d",
				idx, idx+1, bucketHigh(idx), bucketLow(idx+1))
		}
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0, got %d", bucketIndex(-5))
	}
	if bucketIndex(math.MaxInt64) != histNumBuckets-1 {
		t.Fatalf("MaxInt64 maps to bucket %d, want the last bucket %d", bucketIndex(math.MaxInt64), histNumBuckets-1)
	}
}

// TestQuantileErrorBound: against the exact sample quantile v of random
// data at several scales, the histogram estimate q satisfies
// v <= q < v*(1 + 1/histSubCount) — and is exact in the unit-bucket
// region.
func TestQuantileErrorBound(t *testing.T) {
	withEnabled(t)
	rng := rand.New(rand.NewSource(42))
	for _, scale := range []int64{20, 1000, 1 << 20, 1 << 40} {
		h := newHistogram("q")
		n := 5000
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(scale)
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		snap := h.Snapshot()
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0} {
			rank := int(math.Ceil(p * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			got := snap.Quantile(p)
			if got < exact {
				t.Fatalf("scale %d p%.3f: estimate %d below exact %d", scale, p, got, exact)
			}
			bound := exact + exact/histSubCount + 1
			if got >= bound {
				t.Fatalf("scale %d p%.3f: estimate %d outside error bound [%d, %d)", scale, p, got, exact, bound)
			}
			if exact < histSubCount && got != exact {
				t.Fatalf("scale %d p%.3f: unit-bucket region must be exact, got %d want %d", scale, p, got, exact)
			}
		}
	}
}

// TestQuantileEmptyAndEdges: empty snapshots and out-of-range p.
func TestQuantileEmptyAndEdges(t *testing.T) {
	withEnabled(t)
	var empty HistSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty snapshot quantile = %d, want 0", got)
	}
	h := newHistogram("e")
	h.Observe(7)
	snap := h.Snapshot()
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := snap.Quantile(p); got != 7 {
			t.Fatalf("single-value quantile(%g) = %d, want 7", p, got)
		}
	}
	if snap.Min != 7 || snap.Max != 7 || snap.Sum != 7 || snap.Count != 1 {
		t.Fatalf("single-value snapshot wrong: %+v", snap)
	}
}

// randomSnapshot builds a histogram snapshot from random observations.
func randomSnapshot(t *testing.T, seed int64, n int) HistSnapshot {
	t.Helper()
	h := newHistogram("m")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		h.Observe(rng.Int63n(1 << uint(10+rng.Intn(30))))
	}
	return h.Snapshot()
}

// Merge combines two snapshots of the same (or compatible) histograms into
// one, as if every observation of both had landed in a single histogram.
// Merge is associative and commutative up to the Name, which is taken from
// the first non-empty operand. It lives beside its test until the registry
// merges snapshots shipped from other processes.
func Merge(a, b HistSnapshot) HistSnapshot {
	out := HistSnapshot{Name: a.Name, Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	if out.Name == "" {
		out.Name = b.Name
	}
	switch {
	case a.Count == 0:
		out.Min, out.Max = b.Min, b.Max
	case b.Count == 0:
		out.Min, out.Max = a.Min, a.Max
	default:
		out.Min, out.Max = a.Min, a.Max
		if b.Min < out.Min {
			out.Min = b.Min
		}
		if b.Max > out.Max {
			out.Max = b.Max
		}
	}
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		switch {
		case j >= len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].Low < b.Buckets[j].Low):
			out.Buckets = append(out.Buckets, a.Buckets[i])
			i++
		case i >= len(a.Buckets) || b.Buckets[j].Low < a.Buckets[i].Low:
			out.Buckets = append(out.Buckets, b.Buckets[j])
			j++
		default:
			m := a.Buckets[i]
			m.Count += b.Buckets[j].Count
			out.Buckets = append(out.Buckets, m)
			i++
			j++
		}
	}
	return out
}

// TestMergeAssociativeCommutative: Merge(a,b) == Merge(b,a) and
// Merge(Merge(a,b),c) == Merge(a,Merge(b,c)), and a merge equals the
// histogram that saw all observations directly.
func TestMergeAssociativeCommutative(t *testing.T) {
	withEnabled(t)
	a := randomSnapshot(t, 1, 400)
	b := randomSnapshot(t, 2, 300)
	c := randomSnapshot(t, 3, 500)

	ab, ba := Merge(a, b), Merge(b, a)
	ba.Name = ab.Name // commutativity is up to the label
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("Merge is not commutative")
	}
	left, right := Merge(Merge(a, b), c), Merge(a, Merge(b, c))
	if !reflect.DeepEqual(left, right) {
		t.Fatal("Merge is not associative")
	}
	if left.Count != a.Count+b.Count+c.Count || left.Sum != a.Sum+b.Sum+c.Sum {
		t.Fatalf("merged count/sum wrong: %+v", left)
	}

	// Direct equivalence: one histogram fed all three streams.
	all := newHistogram("m")
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		n := map[int64]int{1: 400, 2: 300, 3: 500}[seed]
		for i := 0; i < n; i++ {
			all.Observe(rng.Int63n(1 << uint(10+rng.Intn(30))))
		}
	}
	if got := all.Snapshot(); !reflect.DeepEqual(got, left) {
		t.Fatal("merge of three snapshots differs from the single histogram that saw everything")
	}

	// Identity: merging with an empty snapshot changes nothing but is
	// well-formed.
	var zero HistSnapshot
	withZero := Merge(a, zero)
	if withZero.Count != a.Count || withZero.Min != a.Min || withZero.Max != a.Max {
		t.Fatalf("merge with empty snapshot mangled min/max/count: %+v", withZero)
	}
}

// TestConcurrentWriters: many goroutines hammering one histogram (and a
// counter) must lose nothing; run under -race this is also the data-race
// proof for the lock-free write path.
func TestConcurrentWriters(t *testing.T) {
	withEnabled(t)
	h := newHistogram("c")
	ctr := &Counter{name: "c"}
	const writers, perWriter = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Int63n(1 << 30))
				ctr.Inc()
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("lost observations: count %d, want %d", snap.Count, writers*perWriter)
	}
	if ctr.Value() != writers*perWriter {
		t.Fatalf("lost counter increments: %d, want %d", ctr.Value(), writers*perWriter)
	}
	var fromBuckets int64
	for _, b := range snap.Buckets {
		fromBuckets += int64(b.Count)
	}
	if fromBuckets != snap.Count {
		t.Fatalf("bucket totals %d disagree with count %d", fromBuckets, snap.Count)
	}
	if snap.Min > snap.Max || snap.Max >= 1<<30 {
		t.Fatalf("min/max out of range: %+v", snap)
	}
}

// TestDisabledRecordsNothing: the zero state — writes while the gate is
// off must not touch the histogram, and Now must not read the clock.
func TestDisabledRecordsNothing(t *testing.T) {
	prev := Enabled()
	SetEnabled(false)
	t.Cleanup(func() { SetEnabled(prev) })
	h := newHistogram("d")
	h.Observe(123)
	h.ObserveSince(Now())
	if got := h.Snapshot(); got.Count != 0 {
		t.Fatalf("disabled histogram recorded %d observations", got.Count)
	}
	if Now() != 0 {
		t.Fatal("Now must return the zero stamp while disabled")
	}
	ctr := &Counter{name: "d"}
	ctr.Add(5)
	if ctr.Value() != 0 {
		t.Fatal("disabled counter recorded")
	}
	g := &Gauge{name: "d"}
	g.Set(3.5)
	if g.Value() != 0 {
		t.Fatal("disabled gauge recorded")
	}
}

// TestObserveSince: stamps time a stage; the zero stamp records nothing
// even while enabled.
func TestObserveSince(t *testing.T) {
	withEnabled(t)
	h := newHistogram("s")
	t0 := Now()
	if t0 == 0 {
		t.Fatal("enabled Now returned the zero stamp")
	}
	h.ObserveSince(t0)
	h.ObserveSince(0)
	if got := h.Snapshot(); got.Count != 1 {
		t.Fatalf("recorded %d observations, want 1 (zero stamp must be a no-op)", got.Count)
	}
}

func TestHistSnapshotSub(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	h := newHistogram("x")
	h.Observe(10)
	h.Observe(20)
	old := h.Snapshot()
	h.Observe(20)
	h.Observe(1000)
	win := h.Snapshot().Sub(old)
	if win.Count != 2 {
		t.Fatalf("window count = %d, want 2", win.Count)
	}
	if win.Sum != 1020 {
		t.Fatalf("window sum = %d, want 1020", win.Sum)
	}
	if q := win.Quantile(0.5); q < 20 || q > 21 {
		t.Fatalf("window p50 = %d, want ~20", q)
	}
	if q := win.Quantile(1.0); q < 1000 || q > 1032 {
		t.Fatalf("window max quantile = %d, want ~1000", q)
	}
	// Subtracting a snapshot from itself leaves an empty window.
	cur := h.Snapshot()
	if empty := cur.Sub(cur); empty.Count != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("self-subtraction not empty: %+v", empty)
	}
	// A mismatched (newer) operand clamps instead of going negative.
	if neg := old.Sub(cur); neg.Count != 0 {
		t.Fatalf("clamped subtraction count = %d, want 0", neg.Count)
	}
}
