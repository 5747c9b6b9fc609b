package netem

import (
	"fmt"
	"math"
)

// traceInterval is every trace's sample spacing: one second.
const traceInterval = 1.0

// Trace is a piecewise-constant bottleneck capacity series. Rate[i] applies
// to the half-open interval [i*traceInterval, (i+1)*traceInterval). Reads
// past the end wrap around, so a finite trace can back an arbitrarily long
// session (the emulation methodology replays traces the same way).
type Trace struct {
	Rate []float64 // bits per second; must be non-negative
}

// RateAt returns the capacity at absolute time t (seconds), wrapping past
// the end of the trace.
func (tr *Trace) RateAt(t float64) float64 {
	if len(tr.Rate) == 0 {
		panic("netem: empty trace")
	}
	if t < 0 {
		t = 0
	}
	i := int(t/traceInterval) % len(tr.Rate)
	return tr.Rate[i]
}

// SegmentEnd returns the absolute end time of the trace segment containing
// time t, i.e. the next instant the capacity may change.
func (tr *Trace) SegmentEnd(t float64) float64 {
	if t < 0 {
		t = 0
	}
	return (math.Floor(t/traceInterval) + 1) * traceInterval
}

// Mean returns the time-average capacity in bits per second.
func (tr *Trace) Mean() float64 {
	if len(tr.Rate) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range tr.Rate {
		s += r
	}
	return s / float64(len(tr.Rate))
}

// Validate checks the trace invariants.
func (tr *Trace) Validate() error {
	if len(tr.Rate) == 0 {
		return fmt.Errorf("netem: trace has no samples")
	}
	for i, r := range tr.Rate {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("netem: trace sample %d = %v, must be finite and >= 0", i, r)
		}
	}
	return nil
}
