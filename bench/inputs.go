package main

import (
	"math"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

// Session length is heavy-tailed (the paper's own point), so two seeds give
// deploy days that differ by a fifth in how many decisions they hold and in
// how many of those fall to the expensive, TTP-backed arm. Left alone, that
// input variance is as large as the regression bounds. The benchmark keeps
// every seed a genuinely different population but draws it from a stratum:
// --seed names a deterministic sequence of candidate spec seeds, and the
// first candidate whose deploy day comes close to the reference size and arm
// mix is the one that runs. Candidates are sized with a stand-in algorithm in
// every arm, which costs a few microseconds per decision.
const (
	// decisionsPerSession is the reference size of a deploy day, per
	// session: the median over 200 seeds under the stand-in (quartiles 103
	// and 118; the Fugu arm's share of decisions has quartiles 0.45, 0.54).
	decisionsPerSession = 110.0
	// chunksPerBootstrapSession is the same for a telemetry-collection
	// day, in recorded chunks (quartiles 97 and 109 over 100 seeds).
	chunksPerBootstrapSession = 104.0
	sizeTolerance             = 0.05
	mixTolerance              = 0.05
	bootstrapTolerance        = 0.08
	// About one candidate in twelve fits the daily loop, one in eight the
	// served day; 64 all but always hold one, and sizing a day costs ~0.15 s.
	maxCandidates = 64
)

// pickSeed walks the candidate sequence of seed and returns the first
// candidate whose miss (0 = on the reference, 1 = at the edge of tolerance)
// is at most 1, or the closest of maxCandidates if none is.
func pickSeed(seed int64, miss func(candidate int64) float64) int64 {
	best, bestMiss := seed, math.Inf(1)
	for k := int64(0); k < maxCandidates; k++ {
		c := runner.DaySeed(seed, int(k)) // splitmix of (seed, k): independent candidates
		m := miss(c)
		if m <= 1 {
			return c
		}
		if m < bestMiss {
			best, bestMiss = c, m
		}
	}
	return best
}

// standIn is a cheap algorithm wearing an arm's name, for sizing a day.
type standIn struct {
	abr.Algorithm
	name string
}

func (s standIn) Name() string { return s.name }

// sizeDay counts the decisions of one day of spec under the stand-in:
// sessions keep their arms (the arm is the first draw of the session's own
// RNG), viewers and paths; only the algorithm differs.
func sizeDay(cfg *runner.Config, day int) (all, fugu float64) {
	slot := &runner.ModelSlot{}
	if day > 0 {
		slot.Store(&core.TTP{}) // selects the deploy mixture; the stand-ins never load it
	}
	trial := cfg.DayTrial(day, slot)
	for i := range trial.Schemes {
		name := trial.Schemes[i].Name
		trial.Schemes[i].New = func() abr.Algorithm { return standIn{abr.NewBBA(), name} }
	}
	var n armCount
	foldDay(&trial, &n)
	return float64(n.all.Load()), float64(n.fugu.Load())
}

// specMiss sizes spec under candidate seed c: the deploy day's size and arm
// mix, and (for the daily loop, whose nightly retrain trains on both days)
// the bootstrap day's size.
func specMiss(spec scenario.Spec, c int64, withBootstrap bool) float64 {
	spec.Seed = &c
	cfg, err := scenario.Compile(spec)
	if err != nil {
		return math.Inf(1)
	}
	want := decisionsPerSession * float64(cfg.SessionsPerDay)
	all, fugu := sizeDay(&cfg, 1)
	miss := math.Max(math.Abs(all/want-1)/sizeTolerance, math.Abs(fugu/all/0.5-1)/mixTolerance)
	if miss > 1 || !withBootstrap {
		return miss
	}
	all, _ = sizeDay(&cfg, 0)
	return math.Max(miss, math.Abs(all/want-1)/bootstrapTolerance)
}

// windowMiss sizes a telemetry window of the given chunk count.
func windowMiss(chunks int64, sessions int) float64 {
	return math.Abs(float64(chunks)/(chunksPerBootstrapSession*float64(sessions))-1) / sizeTolerance
}
