package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: an HDR-style fixed log-scale grid over the
// non-negative int64 range. Values below histSubCount land in exact
// unit-width buckets; above that, each power-of-two octave splits into
// histSubCount sub-buckets, so every bucket's width is at most its lower
// bound divided by histSubCount — a guaranteed relative resolution of
// 1/histSubCount (3.125%) that needs no per-histogram configuration and
// makes any two snapshots mergeable bucket-for-bucket.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histNumBuckets indexes every non-negative int64 (max index is
	// reached at v = math.MaxInt64).
	histNumBuckets = (64 - histSubBits) * histSubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	h := bits.Len64(uint64(v)) - 1 // v in [2^h, 2^(h+1))
	return (h-histSubBits)*histSubCount + int(uint64(v)>>uint(h-histSubBits))
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) int64 {
	e := idx >> histSubBits
	m := int64(idx & (histSubCount - 1))
	if e == 0 {
		return m
	}
	return (histSubCount + m) << uint(e-1)
}

// bucketHigh returns the largest value mapping to bucket idx.
func bucketHigh(idx int) int64 {
	if idx >= histNumBuckets-1 {
		return math.MaxInt64
	}
	return bucketLow(idx+1) - 1
}

// A Histogram is a fixed-bucket log-scale distribution of non-negative
// int64 observations (by convention nanoseconds for *_ns histograms, plain
// counts otherwise). All writers use atomics, so concurrent observation
// from any number of goroutines is safe and lock-free.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histNumBuckets]atomic.Uint64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value (recording must be enabled). Negative values
// clamp to 0.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

// ObserveSince records the nanoseconds elapsed since stamp t0 (from Now);
// the zero stamp records nothing, so a stage timed while recording was
// disabled costs nothing and writes nothing.
func (h *Histogram) ObserveSince(t0 int64) {
	if t0 == 0 {
		return
	}
	h.observe(int64(time.Since(epoch)) + 1 - t0)
}

func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Snapshot captures the histogram's current state as a mergeable value.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Sum: h.sum.Load()}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.Min = min
	}
	if max := h.max.Load(); max != math.MinInt64 {
		s.Max = max
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Low: bucketLow(i), High: bucketHigh(i), Count: n})
			s.Count += int64(n)
		}
	}
	return s
}

// HistBucket is one non-empty bucket of a snapshot: every recorded value v
// in it satisfied Low <= v <= High.
type HistBucket struct {
	Low   int64  `json:"low"`
	High  int64  `json:"high"`
	Count uint64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram: the non-empty
// buckets in ascending order plus count/sum/min/max. Snapshots merge
// associatively and commutatively (Merge), so per-shard or per-process
// histograms combine into fleet-wide ones without losing quantile
// resolution.
type HistSnapshot struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	// Buckets lists the non-empty buckets in ascending Low order.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Sub returns the distribution of observations recorded between an earlier
// snapshot old of the same histogram and this one — the window a reader
// computes from two polls of a live snapshot. Bucket counts subtract
// (clamped at zero, so a reset or mismatched operand degrades gracefully);
// Min and Max are not recoverable for a window, so they tighten to the
// delta's outermost non-empty bucket bounds, keeping Quantile's error
// guarantee intact.
func (s HistSnapshot) Sub(old HistSnapshot) HistSnapshot {
	out := HistSnapshot{Name: s.Name}
	j := 0
	for _, b := range s.Buckets {
		for j < len(old.Buckets) && old.Buckets[j].Low < b.Low {
			j++
		}
		n := b.Count
		if j < len(old.Buckets) && old.Buckets[j].Low == b.Low {
			if old.Buckets[j].Count >= n {
				n = 0
			} else {
				n -= old.Buckets[j].Count
			}
		}
		if n != 0 {
			out.Buckets = append(out.Buckets, HistBucket{Low: b.Low, High: b.High, Count: n})
			out.Count += int64(n)
		}
	}
	if d := s.Sum - old.Sum; d > 0 {
		out.Sum = d
	}
	if len(out.Buckets) > 0 {
		out.Min = out.Buckets[0].Low
		out.Max = out.Buckets[len(out.Buckets)-1].High
	}
	return out
}

// Quantile estimates the p-quantile (p in [0, 1]) of the recorded values.
// The estimate is the upper bound of the bucket holding the rank-⌈p·count⌉
// smallest observation, so for a true quantile value v it is guaranteed
// that v <= Quantile(p) < v·(1 + 1/32) (exact for v < 32). Returns 0 for
// an empty snapshot.
func (s HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += int64(b.Count)
		if cum >= rank {
			if b.High > s.Max {
				// The true maximum tightens the last bucket's bound.
				return s.Max
			}
			return b.High
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
