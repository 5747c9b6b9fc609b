package telemetry

import "sort"

// ConcurrencyPoint is one step of a right-continuous step function counting
// concurrently active sessions: at Time, the count becomes Active.
type ConcurrencyPoint struct {
	Time   float64
	Active int
}

// ConcurrencySeries is the occupancy record of a serving engine: how many
// sessions were live at every instant of virtual time. It is built from
// per-session [start, end) intervals, so it is deterministic for a
// deterministic workload regardless of scheduling.
type ConcurrencySeries struct {
	Points []ConcurrencyPoint
}

// NewConcurrencySeries builds the step function from per-session start and
// end times (parallel slices; end < start is treated as an empty interval).
func NewConcurrencySeries(starts, ends []float64) ConcurrencySeries {
	type event struct {
		t     float64
		delta int
	}
	evs := make([]event, 0, 2*len(starts))
	for i, s := range starts {
		if i >= len(ends) || ends[i] < s {
			continue
		}
		evs = append(evs, event{s, +1}, event{ends[i], -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		// Departures before arrivals at the same instant, so a
		// back-to-back handoff does not double-count.
		return evs[i].delta < evs[j].delta
	})
	var ser ConcurrencySeries
	active := 0
	for i, e := range evs {
		active += e.delta
		if i+1 < len(evs) && evs[i+1].t == e.t {
			continue
		}
		ser.Points = append(ser.Points, ConcurrencyPoint{Time: e.t, Active: active})
	}
	return ser
}

// Peak returns the maximum concurrent session count.
func (s *ConcurrencySeries) Peak() int {
	peak := 0
	for _, p := range s.Points {
		if p.Active > peak {
			peak = p.Active
		}
	}
	return peak
}

// Mean returns the time-weighted mean concurrency over the series' span
// (zero for an empty or instantaneous series).
func (s *ConcurrencySeries) Mean() float64 {
	if len(s.Points) < 2 {
		return 0
	}
	span := s.Points[len(s.Points)-1].Time - s.Points[0].Time
	if span <= 0 {
		return 0
	}
	area := 0.0
	for i := 0; i+1 < len(s.Points); i++ {
		area += float64(float64(s.Points[i].Active) * (s.Points[i+1].Time - s.Points[i].Time))
	}
	return area / span
}

// At returns the active count at time t (0 before the first event).
func (s *ConcurrencySeries) At(t float64) int {
	lo, hi := 0, len(s.Points)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Points[mid].Time <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return s.Points[lo-1].Active
}

// Sample downsamples the series to a fixed step for tables and plots: one
// point per dt of virtual time across the span, each carrying the count in
// effect at that instant.
func (s *ConcurrencySeries) Sample(dt float64) []ConcurrencyPoint {
	if len(s.Points) == 0 || dt <= 0 {
		return nil
	}
	t0 := s.Points[0].Time
	t1 := s.Points[len(s.Points)-1].Time
	var out []ConcurrencyPoint
	for t := t0; t <= t1; t += dt {
		out = append(out, ConcurrencyPoint{Time: t, Active: s.At(t)})
	}
	return out
}
