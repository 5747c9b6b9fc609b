package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"

	"puffer/internal/abr"
	"puffer/internal/nn"
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

// ttpModel is the gob wire format.
type ttpModel struct {
	Cfg  FeatureConfig
	Kind Kind
	Nets []*nn.MLP
}

// Save writes the TTP in gob format.
func (t *TTP) Save(w io.Writer) error {
	m := ttpModel{Cfg: t.Cfg, Kind: t.Kind, Nets: t.Nets}
	if err := gob.NewEncoder(w).Encode(&m); err != nil {
		return fmt.Errorf("core: encoding TTP: %w", err)
	}
	return nil
}

// Load reads a TTP written by Save.
func Load(r io.Reader) (*TTP, error) {
	var m ttpModel
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding TTP: %w", err)
	}
	if err := checkNets(m.Cfg, m.Nets); err != nil {
		return nil, err
	}
	return &TTP{Cfg: m.Cfg, Kind: m.Kind, Nets: m.Nets}, nil
}

// checkNets validates a decoded model's networks against its feature layout
// and packs them. A decoded net is whatever the bytes held — a checkpoint
// file, or the model bytes of a dist day frame — so Pack checks each one's
// structure before anything indexes into it (and restores the contiguous
// parameter layout; gob decodes each layer separately).
func checkNets(cfg FeatureConfig, nets []*nn.MLP) error {
	if len(nets) == 0 {
		return fmt.Errorf("core: TTP model has no networks")
	}
	for i, net := range nets {
		if net == nil {
			return fmt.Errorf("core: net %d is missing", i)
		}
		if err := net.Pack(); err != nil {
			return fmt.Errorf("core: net %d: %w", i, err)
		}
		if net.InputSize() != cfg.Dim() {
			return fmt.Errorf("core: net %d input %d does not match feature dim %d", i, net.InputSize(), cfg.Dim())
		}
		if net.OutputSize() != abr.NumBins {
			return fmt.Errorf("core: net %d output %d, want %d bins", i, net.OutputSize(), abr.NumBins)
		}
	}
	return nil
}

// SaveFile writes the TTP to a file.
func (t *TTP) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: writing TTP file: %w", err)
	}
	return nil
}

// LoadFile reads a TTP from a file.
func LoadFile(path string) (*TTP, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening TTP file: %w", err)
	}
	defer f.Close()
	return Load(f)
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
// in features) at one horizon step, writing one raw distribution per row
// into dists. Evaluation code uses it to sweep datasets in large batches.
func (p *Predictor) PredictFeaturesBatch(step int, features []float64, rows int, dists []float64) {
	step = p.clampStep(step)
	p.TTP.Nets[step].Packed().PredictDistBatch(p.ws[step], features, rows, dists)
}

// NewFugu builds the deployed Fugu scheme: stochastic MPC over the TTP's
// full probability distributions.
func NewFugu(t *TTP) *abr.MPC {
	return abr.NewMPC("Fugu", NewPredictor(t, ModeProbabilistic), abr.DefaultQoEWeights())
}

// NewFuguNamed is NewFugu with a custom results-table name (used for
// emulation-trained and stale-model variants).
func NewFuguNamed(name string, t *TTP) *abr.MPC {
	return abr.NewMPC(name, NewPredictor(t, ModeProbabilistic), abr.DefaultQoEWeights())
}
