package netem

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// DaySampler is a Sampler whose path distribution depends on the experiment
// day — the nonstationarity hook the continual-experiment loop threads its
// day index through. Plain Samplers are stationary; SampleForDay adapts
// either kind.
type DaySampler interface {
	Sampler
	// SampleDay draws a path from day `day`'s distribution. It must be
	// deterministic given (rng state, duration, day): two calls with
	// identically-seeded RNGs and the same day yield byte-identical paths.
	SampleDay(rng *rand.Rand, duration float64, day int) Path
}

// sessionTrace is how many seconds of capacity trace SampleForDay
// synthesizes per session (traces wrap, so sessions may run longer).
const sessionTrace = 900

// SampleForDay draws a session's path, sessionTrace seconds long, from s for
// the given experiment day: day-aware samplers draw from that day's
// distribution, stationary samplers ignore the day. Stationary samplers
// consume exactly the same RNG draws as a direct Sample call, so threading a
// day through existing code changes nothing unless drift is configured.
func SampleForDay(s Sampler, rng *rand.Rand, day int) Path {
	if ds, ok := s.(DaySampler); ok {
		return ds.SampleDay(rng, sessionTrace, day)
	}
	return s.Sample(rng, sessionTrace)
}

// DriftSchedule describes how a path population evolves over experiment
// days. The zero value means "no drift". Every knob is expressed per day so
// day 0 always reproduces the base family exactly; a knob only consumes RNG
// draws on days where it is active, so an all-zero schedule is draw-for-draw
// identical to sampling the base family directly.
type DriftSchedule struct {
	// RateFactorPerDay compounds a capacity trend: on day d every path's
	// capacity is multiplied by RateFactorPerDay^d (0.9 = the population
	// loses 10% of its capacity per day; 0 or 1 = no trend).
	RateFactorPerDay float64
	// RateFactorFloor bounds the compounded factor from below so long
	// runs settle at a shifted-down population instead of a dead network
	// (0 = no floor).
	RateFactorFloor float64
	// SlowSharePerDay grows the slow-path population: on day d an extra
	// min(d*SlowSharePerDay, SlowShareCap) fraction of sessions is
	// retargeted onto slow paths (session mean capped in the
	// [0.8, 4.5] Mbit/s band the paper calls "slow"). 0 = no growth.
	SlowSharePerDay float64
	// SlowShareCap bounds the extra slow share (0 = no extra share).
	SlowShareCap float64
	// OutageRatePerDay ramps up deep outages: on day d an additional
	// Poisson outage process of rate d*OutageRatePerDay (outages per
	// second) is overlaid on every trace. 0 = no extra outages.
	OutageRatePerDay float64
	// OutageRateCap bounds the ramped rate (outages per second; 0 = no
	// cap).
	OutageRateCap float64
	// OutageDepth multiplies capacity during an overlaid outage (0 = the
	// link drops to the 1 kbit/s floor).
	OutageDepth float64
	// OutageMeanDur is the mean overlaid-outage duration in seconds
	// (0 = each outage covers only the trace sample it starts in).
	OutageMeanDur float64
	// MixWith, when non-nil, interpolates the population toward a second
	// family: on day d a session is drawn from MixWith instead of the base
	// family with probability MixWeight(d), a piecewise-linear ramp from 0
	// at MixStartDay to 1 at MixStartDay+MixRampDays.
	MixWith Sampler
	// MixStartDay is the first day with nonzero mix weight
	// (sessions still come from the base family before it).
	MixStartDay int
	// MixRampDays is how many days the linear ramp takes to reach weight 1
	// (<= 0 = a step change at MixStartDay).
	MixRampDays int
}

// The paper's "slow path" band: session means below 6 Mbit/s carry most of
// the stalls; retargeted sessions land log-uniformly here.
const (
	slowBandLo = 0.8e6
	slowBandHi = 4.5e6
)

// IsZero reports whether the schedule configures no drift at all.
func (s *DriftSchedule) IsZero() bool {
	return (s.RateFactorPerDay == 0 || s.RateFactorPerDay == 1) &&
		s.SlowSharePerDay == 0 &&
		s.OutageRatePerDay == 0 && s.MixWith == nil
}

// RateScale returns the compounded capacity factor for a day.
func (s *DriftSchedule) RateScale(day int) float64 {
	if s.RateFactorPerDay <= 0 || s.RateFactorPerDay == 1 || day <= 0 {
		return 1
	}
	f := math.Pow(s.RateFactorPerDay, float64(day))
	if s.RateFactorFloor > 0 && f < s.RateFactorFloor {
		f = s.RateFactorFloor
	}
	return f
}

// SlowShare returns the extra slow-path fraction for a day.
func (s *DriftSchedule) SlowShare(day int) float64 {
	if s.SlowSharePerDay <= 0 || day <= 0 {
		return 0
	}
	return math.Min(s.SlowSharePerDay*float64(day), s.SlowShareCap)
}

// OutageRate returns the overlaid outage rate (per second) for a day.
func (s *DriftSchedule) OutageRate(day int) float64 {
	if s.OutageRatePerDay <= 0 || day <= 0 {
		return 0
	}
	r := s.OutageRatePerDay * float64(day)
	if s.OutageRateCap > 0 && r > s.OutageRateCap {
		r = s.OutageRateCap
	}
	return r
}

// MixWeight returns the probability a day-d session comes from MixWith.
func (s *DriftSchedule) MixWeight(day int) float64 {
	if s.MixWith == nil || day < s.MixStartDay {
		return 0
	}
	if s.MixRampDays <= 0 {
		return 1
	}
	w := float64(day-s.MixStartDay) / float64(s.MixRampDays)
	return math.Min(w, 1)
}

// Signature is a compact, deterministic encoding of every knob that shapes
// results. DriftingSampler.Name embeds it, so two schedules that sample
// differently never share a sampler name. (The checkpoint manifest does not
// read the name: it pins the spec's GuardHash, which covers the drift
// preset.)
func (s *DriftSchedule) Signature() string {
	if s.IsZero() {
		return "none"
	}
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if s.RateFactorPerDay > 0 && s.RateFactorPerDay != 1 {
		add("rate^%g>%g", s.RateFactorPerDay, s.RateFactorFloor)
	}
	if s.SlowSharePerDay > 0 {
		add("slow+%g<%g", s.SlowSharePerDay, s.SlowShareCap)
	}
	if s.OutageRatePerDay > 0 {
		add("outage+%g<%g:%gx%g", s.OutageRatePerDay, s.OutageRateCap, s.OutageDepth, s.OutageMeanDur)
	}
	if s.MixWith != nil {
		add("mix(%+v)@%d+%d", s.MixWith, s.MixStartDay, s.MixRampDays)
	}
	return strings.Join(parts, ",")
}

// Describe summarizes the effective distribution shift on a day, for
// progress logs and output tables ("" when the day is undrifted).
func (s *DriftSchedule) Describe(day int) string {
	if s.IsZero() {
		return ""
	}
	var parts []string
	if f := s.RateScale(day); f != 1 {
		parts = append(parts, fmt.Sprintf("rate x%.2f", f))
	}
	if sh := s.SlowShare(day); sh > 0 {
		parts = append(parts, fmt.Sprintf("slow +%.0f%%", 100*sh))
	}
	if r := s.OutageRate(day); r > 0 {
		parts = append(parts, fmt.Sprintf("outages +%.1f/h", 3600*r))
	}
	if w := s.MixWeight(day); w > 0 {
		parts = append(parts, fmt.Sprintf("%.0f%% %s", 100*w, s.MixWith.Name()))
	}
	return strings.Join(parts, ", ")
}

// DriftingSampler wraps any base Sampler with a DriftSchedule, yielding a
// day-indexed path family: SampleDay(rng, dur, d) draws from day d's
// distribution. Drift applies as post-processing on the sampled path
// (capacity scaling, slow-path retargeting, outage overlay) plus a
// population mix at the family level, so it composes with every family.
// Sampling is deterministic per (rng state, day), and a zero Schedule is
// draw-for-draw identical to the base sampler.
type DriftingSampler struct {
	Base     Sampler
	Schedule DriftSchedule
}

// Name identifies the base family plus the drift signature (see
// DriftSchedule.Signature for why the signature must be part of the name).
// A zero schedule keeps the base name, so wrapping without drift does not
// invalidate existing checkpoints.
func (d *DriftingSampler) Name() string {
	if d.Schedule.IsZero() {
		return d.Base.Name()
	}
	return d.Base.Name() + "+drift{" + d.Schedule.Signature() + "}"
}

// Sample implements Sampler by drawing from day 0 (which is always the
// undrifted base distribution).
func (d *DriftingSampler) Sample(rng *rand.Rand, duration float64) Path {
	return d.SampleDay(rng, duration, 0)
}

// SampleDay implements DaySampler. RNG draws happen in a fixed order —
// mix choice, base sample, slow retarget, outage overlay —
// and each post-processing step draws only on days where its knob is
// active, so determinism per (seed, day) holds for every schedule.
func (d *DriftingSampler) SampleDay(rng *rand.Rand, duration float64, day int) Path {
	sched := &d.Schedule
	base := d.Base
	if w := sched.MixWeight(day); w > 0 && rng.Float64() < w {
		base = sched.MixWith
	}
	p := base.Sample(rng, duration)

	scale := sched.RateScale(day)
	if share := sched.SlowShare(day); share > 0 && rng.Float64() < share {
		// Retarget this session into the slow band (log-uniform), unless
		// the drift so far already put it there.
		target := slowBandLo * math.Exp(rng.Float64()*math.Log(slowBandHi/slowBandLo))
		if mean := p.Trace.Mean() * scale; mean > target {
			scale *= target / mean
		}
	}
	if scale != 1 {
		scaleTrace(p.Trace, scale)
	}
	if orate := sched.OutageRate(day); orate > 0 {
		overlayOutages(rng, p.Trace, orate, sched.OutageDepth, sched.OutageMeanDur)
	}
	return p
}

// scaleTrace multiplies every capacity sample, holding the generator's
// never-a-literal-zero-link floor.
func scaleTrace(tr *Trace, f float64) {
	for i, r := range tr.Rate {
		r *= f
		if r < 1e3 {
			r = 1e3
		}
		tr.Rate[i] = r
	}
}

// overlayOutages superimposes an independent Poisson outage process on a
// trace: outages arrive at `rate` per second, last Exp(meanDur), and
// multiply capacity by `depth` — the deep-trouble tail that grows under an
// outage-ramp drift.
func overlayOutages(rng *rand.Rand, tr *Trace, rate, depth, meanDur float64) {
	left := 0.0
	for i := range tr.Rate {
		if left > 0 {
			left -= traceInterval
		} else if rng.Float64() < rate*traceInterval {
			left = rng.ExpFloat64() * meanDur
		} else {
			continue
		}
		r := tr.Rate[i] * depth
		if r < 1e3 {
			r = 1e3
		}
		tr.Rate[i] = r
	}
}

// DriftPreset returns a named drift schedule for the puffer-daily CLI and
// the figures suite. Presets are deliberately strong: they exist to make
// the frozen-vs-retrained separation visible within a few simulated days
// (the paper's real deployment drifted over months).
//
//   - "none":  the stationary deployment (zero schedule).
//   - "decay": the population's capacity decays 40%/day, settling at a
//     tenth of its starting level — the whole path distribution slides
//     downward under the deployed model.
//   - "shift": the population composition shifts — the slow-path share
//     grows 30 points/day (capped at +90) and deep outages ramp up, while
//     the median fast path stays put.
//   - "mix":   the population migrates to a different family — an
//     increasing share of sessions (all of them by day 3) comes from a
//     congested variant of the deployment family (median 1.2 Mbit/s,
//     narrow spread).
func DriftPreset(name string) (DriftSchedule, error) {
	switch name {
	case "", "none":
		return DriftSchedule{}, nil
	case "decay":
		return DriftSchedule{RateFactorPerDay: 0.6, RateFactorFloor: 0.1}, nil
	case "shift":
		return DriftSchedule{
			SlowSharePerDay:  0.3,
			SlowShareCap:     0.9,
			OutageRatePerDay: 1.0 / 180,
			OutageRateCap:    1.0 / 90,
			OutageDepth:      0.03,
			OutageMeanDur:    8,
		}, nil
	case "mix":
		return DriftSchedule{
			MixWith:     PufferPaths{MedianRate: 1.2e6, Sigma: 0.5},
			MixStartDay: 0,
			MixRampDays: 3,
		}, nil
	default:
		return DriftSchedule{}, fmt.Errorf("netem: unknown drift preset %q (want none, decay, shift, or mix)", name)
	}
}
