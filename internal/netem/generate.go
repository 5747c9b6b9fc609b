package netem

import (
	"math"
	"math/rand"
)

// The deployment-like family: slowly-switching regimes, autocorrelated
// within-regime wiggle, and rare deep outages — the heavy-tailed behavior
// the paper observes in the wild.
const (
	pufferRegimeDwell   = 45        // mean time between regime switches (s)
	pufferRegimeSigma   = 0.45      // std-dev of log regime level around the mean
	pufferWithinSigma   = 0.18      // std-dev of fast log-rate variation inside a regime
	pufferOutageRate    = 1.0 / 240 // Poisson rate of deep outages (per second)
	pufferOutageMeanDur = 4.0       // mean outage duration (s)
	pufferOutageDepth   = 0.04      // capacity multiplier during an outage
)

// GenPuffer synthesizes a deployment-like trace of the given duration
// around a long-run mean capacity (bits/sec).
func GenPuffer(rng *rand.Rand, meanRate, duration float64) *Trace {
	n := max(1, int(math.Ceil(duration/traceInterval)))
	tr := &Trace{Rate: make([]float64, n)}
	logMean := math.Log(meanRate)
	regime := logMean + rng.NormFloat64()*pufferRegimeSigma
	wiggle := 0.0
	const arWiggle = 0.85
	outageLeft := 0.0
	for i := 0; i < n; i++ {
		// Regime switching (Poisson).
		if rng.Float64() < traceInterval/pufferRegimeDwell {
			regime = logMean + rng.NormFloat64()*pufferRegimeSigma
		}
		// Fast autocorrelated variation.
		wiggle = arWiggle*wiggle + pufferWithinSigma*rng.NormFloat64()
		rate := math.Exp(regime + wiggle)
		// Outages: heavy-tailed trouble the emulator families lack.
		if outageLeft > 0 {
			rate *= pufferOutageDepth
			outageLeft -= traceInterval
		} else if rng.Float64() < pufferOutageRate*traceInterval {
			outageLeft = rng.ExpFloat64() * pufferOutageMeanDur
			rate *= pufferOutageDepth
		}
		if rate < 1e3 {
			rate = 1e3 // never a literal zero link
		}
		tr.Rate[i] = rate
	}
	return tr
}

// The emulator-like family, mimicking the FCC broadband traces replayed
// through mahimahi in the paper's §5.2: stable capacity with mild wander
// and occasional shallow dips — no heavy tail.
const (
	fccSigma    = 0.10 // std-dev of slow log-rate variation
	fccDipProb  = 0.01 // per-sample probability of a shallow dip
	fccDipDepth = 0.55 // capacity multiplier during a dip
)

// GenFCC synthesizes an FCC-broadband-like trace around a mean capacity
// (bits/sec).
func GenFCC(rng *rand.Rand, meanRate, duration float64) *Trace {
	n := max(1, int(math.Ceil(duration/traceInterval)))
	tr := &Trace{Rate: make([]float64, n)}
	logMean := math.Log(meanRate)
	wander := 0.0
	const ar = 0.97
	dipLeft := 0
	for i := 0; i < n; i++ {
		wander = ar*wander + fccSigma*math.Sqrt(1-ar*ar)*rng.NormFloat64()
		rate := math.Exp(logMean + wander)
		if dipLeft > 0 {
			rate *= fccDipDepth
			dipLeft--
		} else if rng.Float64() < fccDipProb {
			dipLeft = 1 + rng.Intn(4)
			rate *= fccDipDepth
		}
		if rate < 1e4 {
			rate = 1e4
		}
		tr.Rate[i] = rate
	}
	return tr
}

// The discrete-state Markov family of CS2P's model (the paper's Figure 2a
// look: a handful of plateaus).
const (
	cs2pMeanDwell = 60   // mean sojourn in one state (s)
	cs2pJitter    = 0.02 // multiplicative noise std-dev around the state level
	cs2pDuration  = 1200 // trace length (s): Figure 2's 200 six-second epochs
)

// cs2pMeanRate is the family's mean capacity (bits/sec). A variable, so the
// state levels are run-time float64 products: a constant expression would
// fold exactly and could round differently.
var cs2pMeanRate = 2.6e6

// cs2pStates are the capacity levels (bits/sec) around cs2pMeanRate.
func cs2pStates() [4]float64 {
	return [4]float64{cs2pMeanRate * 0.55, cs2pMeanRate * 0.85, cs2pMeanRate * 1.05, cs2pMeanRate * 1.35}
}

// GenCS2P synthesizes a cs2pDuration-second discrete-state Markov trace
// around cs2pMeanRate: the CS2P side of Figure 2.
func GenCS2P(rng *rand.Rand) *Trace {
	n := max(1, int(math.Ceil(cs2pDuration/traceInterval)))
	tr := &Trace{Rate: make([]float64, n)}
	states := cs2pStates()
	state := rng.Intn(len(states))
	for i := 0; i < n; i++ {
		if rng.Float64() < traceInterval/cs2pMeanDwell {
			state = rng.Intn(len(states))
		}
		rate := states[state] * math.Exp(cs2pJitter*rng.NormFloat64())
		if rate < 1e3 {
			rate = 1e3
		}
		tr.Rate[i] = rate
	}
	return tr
}
