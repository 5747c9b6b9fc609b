package netem

import (
	"math"
	"math/rand"
)

// Path is one client's network situation for the lifetime of a session: a
// bottleneck capacity trace plus propagation delay and a queueing
// characteristic.
type Path struct {
	Trace *Trace
	// BaseRTT is the two-way propagation delay with empty queues
	// (seconds).
	BaseRTT float64
	// QueueCapacity is the bottleneck buffer size expressed in seconds of
	// drain time at the current capacity (a "1.0" buffer holds one
	// capacity-second of bytes). Determines worst-case bufferbloat.
	QueueCapacity float64
}

// Sampler draws per-session paths from a family's distribution.
type Sampler interface {
	// Sample draws a path able to back a session of the given duration
	// (seconds).
	Sample(rng *rand.Rand, duration float64) Path
	// Name identifies the family ("puffer", "fcc", "cs2p").
	Name() string
}

// PufferPaths is the deployment distribution: heavy-tailed session mean
// throughput (lognormal body with a Pareto upper tail and a slow lower
// tail), wide-ranging RTTs, and Puffer-like within-session dynamics.
//
// Calibration targets from the paper: "slow" paths (mean delivery rate under
// 6 Mbit/s) carry roughly a fifth of streams and most of the stalls.
type PufferPaths struct {
	// MedianRate is the median session mean capacity (bits/sec); the
	// deployment's is 12 Mbit/s (experiment.DefaultEnv).
	MedianRate float64
	// Sigma is the lognormal shape; the deployment's is 1.1.
	Sigma float64
}

// Name implements Sampler.
func (PufferPaths) Name() string { return "puffer" }

// Sample implements Sampler.
func (p PufferPaths) Sample(rng *rand.Rand, duration float64) Path {
	mean := p.MedianRate * math.Exp(p.Sigma*rng.NormFloat64())
	// Pareto-ish upper tail: a few sessions on very fat pipes.
	if rng.Float64() < 0.05 {
		mean *= 1 + rng.ExpFloat64()*3
	}
	mean = clamp(mean, 0.15e6, 800e6)
	tr := GenPuffer(rng, mean, duration)
	rtt := clamp(0.040*math.Exp(0.55*rng.NormFloat64()), 0.005, 0.400)
	return Path{
		Trace:         tr,
		BaseRTT:       rtt,
		QueueCapacity: clamp(0.25*math.Exp(0.5*rng.NormFloat64()), 0.05, 2.0),
	}
}

// FCCPaths is the emulation distribution used in the paper's §5.2
// methodology: FCC-like traces replayed behind a fixed 40 ms mahimahi delay
// shell with capacity capped near 12 Mbit/s. Session means are bounded and
// modest; variation is mild — no heavy tail.
type FCCPaths struct {
	// MaxRate is the upper bound of the log-uniform session mean
	// (bits/sec); the lower bound is fccMinRate. The emulation testbed's
	// is 16 Mbit/s (experiment.EmulationEnv).
	MaxRate float64
}

// fccMinRate is the lower bound of FCCPaths' log-uniform session mean
// (bits/sec).
const fccMinRate = 0.3e6

// Name implements Sampler.
func (FCCPaths) Name() string { return "fcc" }

// Sample implements Sampler.
func (f FCCPaths) Sample(rng *rand.Rand, duration float64) Path {
	mean := fccMinRate * math.Exp(rng.Float64()*math.Log(f.MaxRate/fccMinRate))
	tr := GenFCC(rng, mean, duration)
	return Path{
		Trace:         tr,
		BaseRTT:       0.040, // the mahimahi shell's fixed 40 ms
		QueueCapacity: 0.5,
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
