package pensieve

import (
	"fmt"
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/nn"
)

// HistLen is the history window of the Pensieve state (k = 8).
const HistLen = 8

// NumActions is the number of ladder rungs the policy chooses among.
const NumActions = 10

// StateDim is the flattened input: 8 past throughputs, 8 past download
// times, next-chunk sizes for 10 rungs, buffer, last quality, and a
// remaining-chunks signal (constant for live streams).
const StateDim = HistLen + HistLen + NumActions + 3

// assembleState builds the Pensieve input from an ABR observation.
func assembleState(dst []float64, obs *abr.Observation) {
	if len(dst) != StateDim {
		panic("pensieve: state buffer has wrong length")
	}
	for i := range dst {
		dst[i] = 0
	}
	hist := obs.History
	if len(hist) > HistLen {
		hist = hist[len(hist)-HistLen:]
	}
	off := HistLen - len(hist)
	for i, r := range hist {
		// Normalized throughput saturates at the envelope of the FCC-like
		// training traces (~8 Mbit/s): beyond its training support the
		// policy cannot distinguish fast paths from very fast ones.
		tp := r.Throughput() / 10e6
		if tp > 0.8 {
			tp = 0.8
		}
		dst[off+i] = tp
		tt := r.TransTime / 10
		if tt > 2 {
			tt = 2
		}
		dst[HistLen+off+i] = tt
	}
	k := 2 * HistLen
	if len(obs.Horizon) > 0 {
		for q := 0; q < NumActions && q < len(obs.Horizon[0].Versions); q++ {
			dst[k+q] = obs.Horizon[0].Versions[q].Size / 1e6
		}
	}
	k += NumActions
	dst[k] = obs.Buffer / 10
	if obs.LastQuality >= 0 {
		dst[k+1] = float64(obs.LastQuality) / float64(NumActions)
	}
	dst[k+2] = 1 // live stream: effectively unbounded chunks remaining
}

// Agent is a frozen Pensieve policy usable as an abr.Algorithm. Deployment
// picks the argmax action. Not safe for concurrent use.
type Agent struct {
	policy *nn.MLP
	ws     *nn.BatchWorkspace
	state  []float64
}

// NewAgent wraps a trained policy network.
func NewAgent(policy *nn.MLP) *Agent {
	if policy.InputSize() != StateDim || policy.OutputSize() != NumActions {
		panic(fmt.Sprintf("pensieve: policy shape %dx%d, want %dx%d",
			policy.InputSize(), policy.OutputSize(), StateDim, NumActions))
	}
	return &Agent{policy: policy, ws: policy.NewBatchWorkspace(1), state: make([]float64, StateDim)}
}

// Policy exposes the underlying policy network (read-only at inference), so
// callers can construct fresh agents with independent workspaces for
// concurrent streams.
func (a *Agent) Policy() *nn.MLP { return a.policy }

// Name implements abr.Algorithm.
func (a *Agent) Name() string { return "Pensieve" }

// Reset implements abr.Algorithm.
func (a *Agent) Reset() {}

// Choose implements abr.Algorithm.
func (a *Agent) Choose(obs *abr.Observation) int {
	assembleState(a.state, obs)
	logits := a.policy.Packed().ForwardInto(a.ws, a.state)
	q := nn.ArgMax(logits)
	if len(obs.Horizon) > 0 && q >= len(obs.Horizon[0].Versions) {
		q = len(obs.Horizon[0].Versions) - 1
	}
	return q
}

// Pensieve's bitrate-based objective, QoE_lin: reward per chunk is
// bitrate(Mbit/s) − rebufPenalty·stall(s) − smoothPenalty·|Δbitrate|.
const (
	rebufPenalty  = 4.3
	smoothPenalty = 1.0
)

// chunkReward scores one chunk; lastBitrate < 0 marks a stream's first.
func chunkReward(enc media.Encoding, lastBitrate float64, stall float64) float64 {
	br := enc.Bitrate() / 1e6
	r := br - rebufPenalty*stall
	if lastBitrate >= 0 {
		d := br - lastBitrate/1e6
		if d < 0 {
			d = -d
		}
		r -= smoothPenalty * d
	}
	return r
}

// NewUntrainedPolicy returns a fresh policy network of the right shape.
func NewUntrainedPolicy(rng *rand.Rand) *nn.MLP {
	return nn.NewMLP(rng, StateDim, 64, 64, NumActions)
}
