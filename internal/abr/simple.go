package abr

import "math"

// BBA is buffer-based control (Huang et al.), configured as on Puffer: the
// original paper's reservoir formula scaled to a 15-second maximum buffer,
// choosing the highest-SSIM version whose actual bitrate fits under the
// buffer-dependent rate limit ("+SSIM s.t. bitrate < limit").
type BBA struct{}

// BBA's reservoir values, consistent with a 15-second maximum buffer as in
// the paper's §3.3 (25% reservoir, ramp to 90%). Vars, not constants, so
// bbaReservoir+bbaCushion stays the run-time float64 addition.
var (
	// bbaReservoir is the lower buffer threshold below which BBA requests
	// the minimum rate (seconds).
	bbaReservoir = 2.5
	// bbaCushion is the buffer span over which the rate limit ramps from
	// minimum to maximum (seconds).
	bbaCushion = 8.5
)

// NewBBA returns BBA as configured on Puffer.
func NewBBA() *BBA { return &BBA{} }

// Name implements Algorithm.
func (b *BBA) Name() string { return "BBA" }

// Reset implements Algorithm.
func (b *BBA) Reset() {}

// Choose implements Algorithm.
func (b *BBA) Choose(obs *Observation) int {
	chunk := obs.Horizon[0]
	nQ := len(chunk.Versions)
	rMin := chunk.Versions[0].Bitrate()
	rMax := chunk.Versions[nQ-1].Bitrate()

	var limit float64
	switch {
	case obs.Buffer <= bbaReservoir:
		limit = rMin
	case obs.Buffer >= bbaReservoir+bbaCushion:
		limit = rMax
	default:
		limit = rMin + (rMax-rMin)*(obs.Buffer-bbaReservoir)/bbaCushion
	}

	best := 0
	for q := 0; q < nQ; q++ {
		if chunk.Versions[q].Bitrate() <= limit {
			// Versions are SSIM-monotone in rung, so the highest
			// fitting rung maximizes SSIM.
			best = q
		}
	}
	return best
}

// RateBased is the classic throughput-matching baseline: an EWMA of observed
// throughput with a safety factor, picking the top version that fits.
type RateBased struct {
	est float64
}

// rateSafety discounts the throughput estimate.
const rateSafety = 0.8

// rateAlpha is the EWMA weight of the newest sample. A var, not a constant,
// so 1-rateAlpha stays the run-time float64 subtraction.
var rateAlpha = 0.4

// NewRateBased returns the baseline with conventional parameters.
func NewRateBased() *RateBased { return &RateBased{} }

// Name implements Algorithm.
func (r *RateBased) Name() string { return "RateBased" }

// Reset implements Algorithm.
func (r *RateBased) Reset() { r.est = 0 }

// Choose implements Algorithm.
func (r *RateBased) Choose(obs *Observation) int {
	if n := len(obs.History); n > 0 {
		s := obs.History[n-1].Throughput()
		if s > 0 {
			if r.est == 0 {
				r.est = s
			} else {
				r.est = rateAlpha*s + (1-rateAlpha)*r.est
			}
		}
	}
	if r.est == 0 {
		return 0
	}
	chunk := obs.Horizon[0]
	limit := rateSafety * r.est
	best := 0
	for q, v := range chunk.Versions {
		if v.Bitrate() <= limit {
			best = q
		}
	}
	return best
}

// BOLA is the Lyapunov-based buffer scheme (Spiteri et al.), adapted to the
// SSIM utilities used throughout this study. It maximizes
// (V·(u_q + gp) − B)/S_q, a related-work baseline the paper cites.
type BOLA struct{}

// BOLA's tuning for the 15-second Puffer buffer.
const (
	// bolaGP is the gamma-p hyperparameter in utility units (dB).
	bolaGP = 5.0
	// bolaTargetBuffer is the buffer level (seconds) at which the top rung
	// becomes optimal on typical content; V is derived from it.
	bolaTargetBuffer = 13.0
)

// NewBOLA returns BOLA tuned for the 15-second Puffer buffer.
func NewBOLA() *BOLA { return &BOLA{} }

// Name implements Algorithm.
func (b *BOLA) Name() string { return "BOLA" }

// Reset implements Algorithm.
func (b *BOLA) Reset() {}

// Choose implements Algorithm.
func (b *BOLA) Choose(obs *Observation) int {
	chunk := obs.Horizon[0]
	nQ := len(chunk.Versions)
	uMin := chunk.Versions[0].SSIMdB
	uMax := chunk.Versions[nQ-1].SSIMdB
	// Calibrate V so the top version's score crosses the others at
	// bolaTargetBuffer: V·(uMax−uMin+gp) = bolaTargetBuffer.
	denom := uMax - uMin + bolaGP
	if denom <= 0 {
		return 0
	}
	v := bolaTargetBuffer / denom
	// Above the target buffer every score is negative; a DASH player
	// would pause downloads there. Puffer's server keeps sending while
	// the client has room, so saturate at the top rung instead.
	if obs.Buffer >= bolaTargetBuffer {
		return nQ - 1
	}
	best, bestScore := 0, math.Inf(-1)
	for q := 0; q < nQ; q++ {
		enc := chunk.Versions[q]
		score := (v*(enc.SSIMdB-uMin+bolaGP) - obs.Buffer) / enc.Size
		if score > bestScore {
			best, bestScore = q, score
		}
	}
	return best
}
