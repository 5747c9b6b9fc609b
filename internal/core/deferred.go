package core

import (
	"puffer/internal/abr"
	"puffer/internal/nn"
)

// PendingStep is one staged distribution fill: the assembled feature rows
// for one horizon step of one MPC decision, the net they must run through,
// and where the finished distributions belong. An external inference
// service executes the forward pass — typically concatenated with other
// sessions' pending steps for the same net — and then calls Finish with the
// softmaxed rows.
type PendingStep struct {
	// Net is the horizon net for this step (shared by every session that
	// serves the same model, which is what makes cross-session batching
	// worthwhile).
	Net *nn.MLP
	// Rows is the number of candidate sizes (ladder rungs) staged.
	Rows int
	// Feats is the Rows × feature-dim row-major matrix, assembled at
	// stage time exactly as the direct path would have.
	Feats []float64

	sizes []float64
	dists []float64
	pred  *Predictor
}

// Finish converts the service-computed softmax rows (Rows × abr.NumBins,
// exactly what nn's PredictDistBatch produces for Feats) into the final
// transmission-time distributions the planner consumes — the same
// throughput-kind conversion and point-estimate collapse as the direct
// path, bit for bit.
func (ps *PendingStep) Finish(probs []float64) {
	for r := 0; r < ps.Rows; r++ {
		ps.pred.finishDist(ps.dists[r*abr.NumBins:(r+1)*abr.NumBins],
			probs[r*abr.NumBins:(r+1)*abr.NumBins], ps.sizes[r])
	}
}

// DeferredPredictor wraps a Predictor so that batched distribution fills
// are staged instead of executed: each PredictDistBatch call assembles its
// feature matrix and records a PendingStep; an external service runs the
// forward passes (merged across sessions) and completes each step with
// Finish. Splitting the MPC's decision this way changes nothing about its
// outcome — features, softmax, and finishing are the exact operations of
// the direct path — it only moves the network execution to a point where
// many sessions' rows can share one batched pass per net.
//
// Not safe for concurrent use; create one per session, like the Predictor
// it wraps.
type DeferredPredictor struct {
	P *Predictor

	steps []PendingStep
	n     int
}

// NewDeferredPredictor wraps p for staged execution.
func NewDeferredPredictor(p *Predictor) *DeferredPredictor {
	return &DeferredPredictor{P: p}
}

// PredictDistBatch implements abr.Predictor by staging: the feature
// matrix is assembled now (identically to the direct path), and the forward
// pass plus finishing are deferred to the pending step's executor.
func (d *DeferredPredictor) PredictDistBatch(obs *abr.Observation, step int, sizes []float64, dists []float64) {
	b := len(sizes)
	if b == 0 {
		return
	}
	step = d.P.clampStep(step)
	dim := d.P.TTP.Cfg.Dim()
	if d.n == len(d.steps) {
		d.steps = append(d.steps, PendingStep{})
	}
	ps := &d.steps[d.n]
	d.n++
	ps.Net = d.P.TTP.Nets[step]
	ps.Rows = b
	ps.Feats = growFloats(ps.Feats, b*dim)
	ps.sizes = growFloats(ps.sizes, b)
	copy(ps.sizes, sizes)
	ps.dists = dists
	ps.pred = d.P
	d.P.TTP.Cfg.AssembleBatch(ps.Feats, obs.History, obs.TCP, sizes)
}

// Pending returns the steps staged since the last Clear, in stage order.
// The returned slice and its buffers are owned by the predictor and valid
// until the next Clear.
func (d *DeferredPredictor) Pending() []PendingStep { return d.steps[:d.n] }

// Clear forgets the staged steps (after the executor finished them),
// keeping their buffers for reuse.
func (d *DeferredPredictor) Clear() { d.n = 0 }
