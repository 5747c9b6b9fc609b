package core

import (
	"errors"
	"fmt"
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/nn"
	"puffer/internal/wire"
)

// DefaultHorizon is the MPC lookahead (paper: H = 5, about 10 seconds).
const DefaultHorizon = 5

// DefaultHidden is the TTP's architecture: two hidden layers of 64 neurons
// (paper §4.5).
var DefaultHidden = []int{64, 64}

// Kind distinguishes what a predictor's output bins mean.
type Kind int

const (
	// KindTransTime is the real TTP: bins over transmission time.
	KindTransTime Kind = iota
	// KindThroughput is the ablation that predicts a throughput
	// distribution and converts to time via size/rate.
	KindThroughput
)

// TTP is the Transmission Time Predictor: one network per horizon step
// (the paper trains H separate nets in parallel; they are functionally
// equivalent to a single net with a time-step input).
type TTP struct {
	Cfg  FeatureConfig
	Kind Kind
	Nets []*nn.MLP
}

// NewTTP builds an untrained TTP with the given hidden-layer sizes (nil
// means DefaultHidden; an explicit empty slice gives the linear ablation).
func NewTTP(rng *rand.Rand, horizon int, hidden []int, cfg FeatureConfig, kind Kind) *TTP {
	if horizon < 1 {
		panic(fmt.Sprintf("core: horizon %d, must be >= 1", horizon))
	}
	if hidden == nil {
		hidden = DefaultHidden
	}
	sizes := append([]int{cfg.Dim()}, hidden...)
	sizes = append(sizes, abr.NumBins)
	t := &TTP{Cfg: cfg, Kind: kind, Nets: make([]*nn.MLP, horizon)}
	for i := range t.Nets {
		t.Nets[i] = nn.NewMLP(rng, sizes...)
	}
	return t
}

// Horizon returns the number of lookahead steps the TTP covers.
func (t *TTP) Horizon() int { return len(t.Nets) }

// Clone deep-copies the TTP (used to warm-start daily retraining).
func (t *TTP) Clone() *TTP {
	c := &TTP{Cfg: t.Cfg, Kind: t.Kind, Nets: make([]*nn.MLP, len(t.Nets))}
	for i, n := range t.Nets {
		c.Nets[i] = n.Clone()
	}
	return c
}

// Label returns the training label (output bin) for an observed chunk with
// the given size (bytes) and transmission time (seconds).
func (t *TTP) Label(size, transTime float64) int {
	if t.Kind == KindThroughput {
		if transTime <= 0 {
			return abr.NumBins - 1
		}
		return ThroughputBinIndex(size * 8 / transTime)
	}
	return abr.BinIndex(transTime)
}

// modelVersion is the version byte of the TTP's layout: ttp.model and the
// dist day frame.
const modelVersion = 1

// Feature flags of the TTP's layout.
const (
	flagTCPInfo      = 1 << 0
	flagProposedSize = 1 << 1
)

// AppendTo appends the TTP's fixed layout: the version byte, the feature
// config (the history length as an i32, then a flags byte), the kind byte,
// then a u32 count and each net's layout.
func (t *TTP) AppendTo(b []byte) []byte {
	var flags byte
	if t.Cfg.UseTCPInfo {
		flags |= flagTCPInfo
	}
	if t.Cfg.UseProposedSize {
		flags |= flagProposedSize
	}
	b = wire.AppendI32(append(b, modelVersion), t.Cfg.HistLen)
	b = wire.AppendU32(append(b, flags, byte(t.Kind)), uint32(len(t.Nets)))
	for _, net := range t.Nets {
		b = net.AppendTo(b)
	}
	return b
}

// Decode reads what AppendTo wrote into t, refusing unknown flags or kind,
// an invalid feature config, and nets that are malformed or do not fit the
// config, each with an error wrapping nn.ErrBadModel.
func (t *TTP) Decode(r *wire.Reader) {
	r.Version("model", modelVersion)
	t.Cfg.HistLen = r.I32()
	flags := r.U8()
	t.Cfg.UseTCPInfo, t.Cfg.UseProposedSize = flags&flagTCPInfo != 0, flags&flagProposedSize != 0
	switch t.Kind = Kind(r.U8()); {
	case r.Err() != nil:
	case flags&^(flagTCPInfo|flagProposedSize) != 0:
		r.Fail(fmt.Errorf("core: %w: feature flags %#x", nn.ErrBadModel, flags))
	case t.Kind != KindTransTime && t.Kind != KindThroughput:
		r.Fail(fmt.Errorf("core: %w: kind %d", nn.ErrBadModel, t.Kind))
	default:
		r.Fail(t.Cfg.Validate())
	}
	t.Nets = make([]*nn.MLP, r.Count(4)) // a net's layout opens with its u32 width count
	for i := range t.Nets {
		t.Nets[i] = new(nn.MLP)
		t.Nets[i].Decode(r)
	}
	if r.Err() == nil {
		r.Fail(checkNets(t.Cfg, t.Nets))
	}
}

// Load reads a TTP that AppendTo wrote. Every refusal wraps nn.ErrBadModel: a
// model file or a day frame's model bytes either decode to a TTP that
// serves, or are malformed.
func Load(b []byte) (*TTP, error) {
	t := new(TTP)
	if err := wire.Decode(b, t); err != nil {
		if !errors.Is(err, nn.ErrBadModel) {
			err = fmt.Errorf("core: %w: %w", nn.ErrBadModel, err)
		}
		return nil, err
	}
	return t, nil
}

// checkNets validates decoded networks against their (validated) feature
// layout: input width the feature dim, output width the bin count. Every
// error wraps nn.ErrBadModel.
func checkNets(cfg FeatureConfig, nets []*nn.MLP) error {
	if len(nets) == 0 {
		return fmt.Errorf("core: %w: no networks", nn.ErrBadModel)
	}
	for i, net := range nets {
		if net.InputSize() != cfg.Dim() {
			return fmt.Errorf("core: %w: net %d input %d does not match feature dim %d", nn.ErrBadModel, i, net.InputSize(), cfg.Dim())
		}
		if net.OutputSize() != abr.NumBins {
			return fmt.Errorf("core: %w: net %d output %d, want %d bins", nn.ErrBadModel, i, net.OutputSize(), abr.NumBins)
		}
	}
	return nil
}

// Mode selects how the MPC consumes the TTP's output.
type Mode int

const (
	// ModeProbabilistic uses the full distribution (Fugu).
	ModeProbabilistic Mode = iota
	// ModePointEstimate collapses the distribution to its argmax bin —
	// the "Point Estimate" / maximum-likelihood ablation.
	ModePointEstimate
)

// Predictor adapts a TTP to the abr.Predictor interface consumed by the MPC
// engine: it assembles one feature matrix for all candidate sizes of a
// horizon step and runs a single batched forward pass per net. Every forward
// pass runs on the net's shared packed snapshot
// (nn.MLP.Packed) — the same kernel, and the same snapshot, the fleet and
// serve engines flush through — so a Predictor owns only its workspaces and
// creating one per stream costs no transpose. Not safe for concurrent use;
// create one per stream (any number may share one TTP).
type Predictor struct {
	TTP  *TTP
	Mode Mode

	// ws[step] is the batch workspace for Nets[step]; when every net has
	// the same shape (the normal case) all entries share one workspace.
	ws     []*nn.BatchWorkspace
	featM  []float64 // batch feature matrix, B × Cfg.Dim()
	probsM []float64 // raw network output, B × NumBins
	size1  []float64 // one-element size buffer for the scalar wrapper
}

// defaultPredictBatch is the batch capacity a fresh Predictor's buffers are
// sized for: one row per rung of the default encoding ladder. Larger
// batches grow the buffers once and reuse them afterwards.
const defaultPredictBatch = 10

// NewPredictor wraps a trained TTP.
func NewPredictor(t *TTP, mode Mode) *Predictor {
	p := &Predictor{TTP: t, Mode: mode}
	p.ws = make([]*nn.BatchWorkspace, len(t.Nets))
	shared := t.Nets[0].NewBatchWorkspace(defaultPredictBatch)
	for i, net := range t.Nets {
		if net.SameShape(t.Nets[0]) {
			p.ws[i] = shared
		} else {
			p.ws[i] = net.NewBatchWorkspace(defaultPredictBatch)
		}
	}
	p.featM = make([]float64, defaultPredictBatch*t.Cfg.Dim())
	p.probsM = make([]float64, defaultPredictBatch*abr.NumBins)
	p.size1 = make([]float64, 1)
	return p
}

// growFloats resizes s to n elements, reusing capacity when possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// clampStep maps an out-of-range horizon step to the last trained net.
func (p *Predictor) clampStep(step int) int {
	if step >= len(p.TTP.Nets) {
		return len(p.TTP.Nets) - 1
	}
	return step
}

// PredictDist is a batch-of-one PredictDistBatch. Outside tests only the
// benchmark's per-layer timer calls it; it goes when that timer drops it.
func (p *Predictor) PredictDist(obs *abr.Observation, step int, size float64, dist []float64) {
	p.size1[0] = size
	p.PredictDistBatch(obs, step, p.size1, dist)
}

// PredictDistBatch implements abr.Predictor: one feature-matrix
// assembly and one batched forward pass covers every candidate size of the
// horizon step.
func (p *Predictor) PredictDistBatch(obs *abr.Observation, step int, sizes []float64, dists []float64) {
	step = p.clampStep(step)
	b := len(sizes)
	if b == 0 {
		return
	}
	dim := p.TTP.Cfg.Dim()
	p.featM = growFloats(p.featM, b*dim)
	p.probsM = growFloats(p.probsM, b*abr.NumBins)
	p.TTP.Cfg.AssembleBatch(p.featM, obs.History, obs.TCP, sizes)
	p.TTP.Nets[step].Packed().PredictDistBatch(p.ws[step], p.featM, b, p.probsM)
	for r := 0; r < b; r++ {
		p.finishDist(dists[r*abr.NumBins:(r+1)*abr.NumBins],
			p.probsM[r*abr.NumBins:(r+1)*abr.NumBins], sizes[r])
	}
}

// finishDist turns one raw network output row into the transmission-time
// distribution the MPC consumes: throughput-kind outputs are converted via
// T = 8·size/rate, and point-estimate mode collapses to the argmax bin.
func (p *Predictor) finishDist(dist, probs []float64, size float64) {
	switch p.TTP.Kind {
	case KindThroughput:
		for i := range dist {
			dist[i] = 0
		}
		for i, pr := range probs {
			if pr == 0 {
				continue
			}
			tt := size * 8 / ThroughputBinValue(i)
			dist[abr.BinIndex(tt)] += pr
		}
	default:
		copy(dist, probs)
	}

	if p.Mode == ModePointEstimate {
		best := nn.ArgMax(dist)
		for i := range dist {
			dist[i] = 0
		}
		dist[best] = 1
	}
}

// PredictFeaturesBatch scores `rows` pre-assembled feature rows (row-major
// in features) at the first horizon step, writing one raw distribution per
// row into dists. Figure 7's evaluation uses it to sweep datasets in large
// batches.
func (p *Predictor) PredictFeaturesBatch(features []float64, rows int, dists []float64) {
	p.TTP.Nets[0].Packed().PredictDistBatch(p.ws[0], features, rows, dists)
}

// NewFugu builds the deployed Fugu scheme: stochastic MPC over the TTP's
// full probability distributions.
func NewFugu(t *TTP) *abr.MPC { return NewFuguNamed("Fugu", t) }

// NewFuguNamed is NewFugu with a custom results-table name (used for
// emulation-trained and stale-model variants).
func NewFuguNamed(name string, t *TTP) *abr.MPC {
	return abr.NewMPC(name, NewPredictor(t, ModeProbabilistic))
}
