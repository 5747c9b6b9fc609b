package netem

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// Trace is a piecewise-constant bottleneck capacity series. Rate[i] applies
// to the half-open interval [i*Interval, (i+1)*Interval). Reads past the end
// wrap around, so a finite trace can back an arbitrarily long session (the
// emulation methodology replays traces the same way).
type Trace struct {
	Interval float64   // seconds per sample; must be > 0
	Rate     []float64 // bits per second; must be non-negative
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
	i := int(t/tr.Interval) % len(tr.Rate)
	return tr.Rate[i]
}

// SegmentEnd returns the absolute end time of the trace segment containing
// time t, i.e. the next instant the capacity may change.
func (tr *Trace) SegmentEnd(t float64) float64 {
	if t < 0 {
		t = 0
	}
	return (math.Floor(t/tr.Interval) + 1) * tr.Interval
}

// Duration returns the un-wrapped length of the trace in seconds.
func (tr *Trace) Duration() float64 {
	return float64(len(tr.Rate)) * tr.Interval
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

// Min returns the minimum capacity sample.
func (tr *Trace) Min() float64 {
	if len(tr.Rate) == 0 {
		return 0
	}
	m := tr.Rate[0]
	for _, r := range tr.Rate[1:] {
		if r < m {
			m = r
		}
	}
	return m
}

// Validate checks the trace invariants.
func (tr *Trace) Validate() error {
	if tr.Interval <= 0 {
		return fmt.Errorf("netem: trace interval %v, must be > 0", tr.Interval)
	}
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

// WriteCSV writes the trace as "time_s,rate_bps" rows with a header.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_s,rate_bps"); err != nil {
		return err
	}
	for i, r := range tr.Rate {
		if _, err := fmt.Fprintf(bw, "%.3f,%.0f\n", float64(i)*tr.Interval, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}
