package stats

import (
	"fmt"
	"math/rand"

	"puffer/internal/wire"
)

// This file holds the mergeable accumulators behind sharded aggregation:
// shards (or days) of an experiment each fold their streams into private
// accumulators, the accumulators are merged in a deterministic order, and
// the bootstrap / standard-error machinery runs once on the merged state.
// Only the per-stream tuples the estimators actually need are retained, so
// aggregation streams over session results instead of materializing them.

// StreamAcc is a mergeable accumulator of per-stream (watch, stall) points —
// the resampling unit of the paper's §3.4 bootstrap. AppendTo and Decode
// are its fixed layout, for checkpoints and the dist shard blob.
type StreamAcc struct {
	Points []StreamPoint
}

// Add folds one stream into the accumulator.
func (a *StreamAcc) Add(p StreamPoint) { a.Points = append(a.Points, p) }

// Merge appends another accumulator's streams. Merge order must be
// deterministic for reproducible bootstraps; callers merge shards in shard
// order.
func (a *StreamAcc) Merge(b *StreamAcc) { a.Points = append(a.Points, b.Points...) }

// AppendTo appends the fixed layout: a u32 count, then (watch, stall) per
// stream.
func (a *StreamAcc) AppendTo(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(a.Points)))
	for _, p := range a.Points {
		b = wire.AppendF64(wire.AppendF64(b, p.Watch), p.Stall)
	}
	return b
}

// Decode reads what AppendTo wrote into a; no streams decode as nil.
func (a *StreamAcc) Decode(r *wire.Reader) {
	a.Points = make([]StreamPoint, r.Count(16))
	for i := range a.Points {
		a.Points[i] = StreamPoint{Watch: r.F64(), Stall: r.F64()}
	}
	if len(a.Points) == 0 {
		a.Points = nil
	}
}

// StreamYears returns the accumulated watch time in stream-years.
func (a *StreamAcc) StreamYears() float64 { return StreamYears(a.Points) }

// Bootstrap is the merge-then-bootstrap path: a percentile-bootstrap CI on
// the aggregate stall ratio over the merged streams, from 400 resamples.
// Identical to calling BootstrapStallRatio on the concatenated points.
func (a *StreamAcc) Bootstrap(rng *rand.Rand) Interval {
	return BootstrapStallRatio(rng, a.Points, 400)
}

// WeightedAcc is a mergeable accumulator of weighted scalar samples, feeding
// the weighted-standard-error interval used for SSIM and the unit-weight
// means (startup delay, first-chunk SSIM, session duration).
type WeightedAcc struct {
	Values  []float64
	Weights []float64
}

// Add folds one weighted sample into the accumulator.
func (a *WeightedAcc) Add(v, w float64) {
	a.Values = append(a.Values, v)
	a.Weights = append(a.Weights, w)
}

// AddUnit folds one unit-weight sample into the accumulator.
func (a *WeightedAcc) AddUnit(v float64) { a.Add(v, 1) }

// Merge appends another accumulator's samples in order.
func (a *WeightedAcc) Merge(b *WeightedAcc) {
	a.Values = append(a.Values, b.Values...)
	a.Weights = append(a.Weights, b.Weights...)
}

// AppendTo appends the fixed layout: the values, then the weights, each a
// u32 count and the floats.
func (a *WeightedAcc) AppendTo(b []byte) []byte {
	return wire.AppendF64s(wire.AppendF64s(b, a.Values), a.Weights)
}

// Decode reads what AppendTo wrote into a; an empty series is nil, and a
// weight series of another length than the values fails r.
func (a *WeightedAcc) Decode(r *wire.Reader) {
	a.Values = r.F64s()
	a.Weights = r.F64s()
	if r.Err() == nil && len(a.Weights) != len(a.Values) {
		r.Fail(fmt.Errorf("stats: %d weights for %d values", len(a.Weights), len(a.Values)))
	}
}

// Interval returns the weighted mean with its conf-level interval over the
// merged samples, exactly as WeightedMeanSE on the concatenated series.
func (a *WeightedAcc) Interval() Interval {
	return WeightedMeanSE(a.Values, a.Weights)
}
