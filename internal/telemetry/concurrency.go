package telemetry

import "sort"

// Concurrency summarises the occupancy of a serving engine: how many
// sessions were live over virtual time. It is computed from per-session
// [start, end) intervals, so it is deterministic for a deterministic
// workload regardless of scheduling.
type Concurrency struct {
	// Peak is the maximum number of concurrently live sessions.
	Peak int
	// Mean is the time-weighted mean count over Span (zero for an empty or
	// instantaneous record).
	Mean float64
	// Span is the virtual time from the first arrival to the last departure.
	Span float64
}

// ConcurrencyOf summarises the occupancy of sessions with the given start
// and end times (parallel slices; end < start is an empty interval). The
// count is a right-continuous step function: at an instant where sessions
// leave and others arrive, departures come first, so a back-to-back handoff
// does not double-count.
func ConcurrencyOf(starts, ends []float64) Concurrency {
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
		return evs[i].delta < evs[j].delta
	})
	// Each distinct instant is one step; area accumulates the count in
	// force over each step's width, in time order.
	var c Concurrency
	active, prev, steps := 0, 0, 0
	var first, last, area float64
	for i, e := range evs {
		active += e.delta
		if i+1 < len(evs) && evs[i+1].t == e.t {
			continue
		}
		if steps == 0 {
			first = e.t
		} else {
			area += float64(float64(prev) * (e.t - last))
		}
		c.Peak = max(c.Peak, active)
		prev, last = active, e.t
		steps++
	}
	if steps > 0 {
		c.Span = last - first
	}
	if steps > 1 && c.Span > 0 {
		c.Mean = area / c.Span
	}
	return c
}
