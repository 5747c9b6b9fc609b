package fleet

import (
	"math/rand"
	"sort"

	"puffer/internal/experiment"
)

// ArrivalProcess draws the virtual-time instants at which a trial's
// sessions arrive. Arrival times shift when each session's global timeline
// starts, but never change what happens inside a session, so aggregate
// statistics are invariant to the choice of process.
type ArrivalProcess interface {
	// Times returns n arrival times in nondecreasing order drawn from
	// rng, starting at virtual time 0.
	Times(rng *rand.Rand, n int) []float64
}

// PoissonArrivals models the platform's natural workload: sessions arrive
// as a Poisson process, so inter-arrival gaps are exponential with mean
// 1/Rate.
type PoissonArrivals struct {
	// Rate is the arrival intensity in sessions per virtual second. A
	// non-positive rate degenerates to all sessions arriving at time 0.
	Rate float64
}

// Times implements ArrivalProcess.
func (p PoissonArrivals) Times(rng *rand.Rand, n int) []float64 {
	times := make([]float64, n)
	if p.Rate <= 0 {
		return times
	}
	t := 0.0
	for i := range times {
		t += rng.ExpFloat64() / p.Rate
		times[i] = t
	}
	return times
}

// BurstArrivals models a flash crowd: sessions arrive in evenly spaced
// bursts of Burst sessions each (a stress shape for the inference service's
// batching).
type BurstArrivals struct {
	// Burst is the sessions per burst (<= 0 means one burst of everything).
	Burst int
	// Gap is the virtual seconds between bursts.
	Gap float64
}

// Times implements ArrivalProcess.
func (b BurstArrivals) Times(rng *rand.Rand, n int) []float64 {
	times := make([]float64, n)
	if b.Burst <= 0 {
		return times
	}
	for i := range times {
		times[i] = float64(i/b.Burst) * b.Gap
	}
	return times
}

// arrivalSalt decorrelates the arrival RNG from every session RNG (which
// mix the trial seed with small session ids) and the runner's day salts.
const arrivalSalt = 0x41_52_52_49_56_45 // "ARRIVE"

// ArrivalTimes draws the arrival schedule the engine would use for a trial
// with this seed — exposed so tests (and capacity planning) can reproduce
// the arrival process without running sessions. The result is sorted and
// deterministic per (process, seed, n).
func ArrivalTimes(proc ArrivalProcess, seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(experiment.Mix(seed, arrivalSalt)))
	times := proc.Times(rng, n)
	sort.Float64s(times)
	return times
}
