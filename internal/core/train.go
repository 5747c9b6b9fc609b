package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"puffer/internal/abr"
	"puffer/internal/nn"
	"puffer/internal/tcpsim"
)

// ChunkObs is the telemetry Fugu aggregates per sent chunk: what was sent,
// how long it took, and the tcp_info snapshot at decision time. Day stamps
// support the sliding training window and recency weighting.
type ChunkObs struct {
	Size      float64 // bytes
	TransTime float64 // seconds
	Info      tcpsim.Info
	Day       int
}

// StreamObs is one stream's chunk sequence, in send order.
type StreamObs struct {
	Chunks []ChunkObs
}

// Dataset is the training corpus assembled from deployment telemetry.
type Dataset struct {
	Streams []StreamObs
}

// NumChunks returns the total chunk count across streams.
func (d *Dataset) NumChunks() int {
	n := 0
	for _, s := range d.Streams {
		n += len(s.Chunks)
	}
	return n
}

// MaxDay returns the most recent day stamp in the dataset (0 if empty).
func (d *Dataset) MaxDay() int {
	m := 0
	for _, s := range d.Streams {
		for _, c := range s.Chunks {
			if c.Day > m {
				m = c.Day
			}
		}
	}
	return m
}

// Examples materializes supervised examples for horizon step `step`:
// features are assembled from the state at decision time i (history of
// chunks before i, tcp_info at i, and the size of chunk i+step); the label
// is the observed outcome of chunk i+step. Windowing and recency weights
// follow cfg.
func (d *Dataset) Examples(t *TTP, step int, cfg TrainConfig) (xs [][]float64, labels []int, weights []float64) {
	fc := t.Cfg
	maxDay := d.MaxDay()
	hist := make([]abr.ChunkRecord, 0, fc.HistLen)
	for _, s := range d.Streams {
		for i := 0; i+step < len(s.Chunks); i++ {
			target := s.Chunks[i+step]
			if cfg.WindowDays > 0 && maxDay-target.Day >= cfg.WindowDays {
				continue
			}
			hist = hist[:0]
			lo := i - fc.HistLen
			if lo < 0 {
				lo = 0
			}
			for _, c := range s.Chunks[lo:i] {
				hist = append(hist, abr.ChunkRecord{Size: c.Size, TransTime: c.TransTime})
			}
			x := make([]float64, fc.Dim())
			fc.Assemble(x, hist, s.Chunks[i].Info, target.Size)
			xs = append(xs, x)
			labels = append(labels, t.Label(target.Size, target.TransTime))
			w := 1.0
			if cfg.RecencyBase > 0 && cfg.RecencyBase != 1 {
				age := maxDay - target.Day
				w = pow(cfg.RecencyBase, age)
			}
			weights = append(weights, w)
		}
	}
	return xs, labels, weights
}

func pow(b float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= b
	}
	return p
}

// TrainConfig controls supervised TTP training, mirroring §4.3: daily
// retraining over a 14-day window with recent days weighted more heavily,
// warm-started from the previous model.
type TrainConfig struct {
	Epochs      int     // passes over the data (default 8)
	BatchSize   int     // minibatch size (default 64)
	LR          float64 // Adam learning rate (default 1e-3)
	Seed        int64   // shuffling seed
	WindowDays  int     // include only the last N days; 0 = all
	RecencyBase float64 // per-day-of-age weight multiplier; 0 or 1 = uniform
}

// DefaultTrainConfig returns the study's training defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 8, BatchSize: 64, LR: 1e-3, Seed: 1, WindowDays: 14, RecencyBase: 0.9}
}

// TrainResult reports per-step final training losses (nats).
type TrainResult struct {
	Loss     []float64
	Examples []int
}

// Train fits the TTP's per-step networks on the dataset. The TTP is
// modified in place (call Clone first to warm-start without destroying the
// old model). The per-step networks are independent, so they train in
// parallel — the paper parallelizes its multi-network training the same way.
func Train(t *TTP, data *Dataset, cfg TrainConfig) (TrainResult, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	res := TrainResult{Loss: make([]float64, len(t.Nets)), Examples: make([]int, len(t.Nets))}
	errs := make([]error, len(t.Nets))
	var wg sync.WaitGroup
	for step := range t.Nets {
		wg.Add(1)
		go func(step int) {
			defer wg.Done()
			errs[step] = trainStep(t, data, cfg, step, &res)
		}(step)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// trainStep fits one horizon step's network.
func trainStep(t *TTP, data *Dataset, cfg TrainConfig, step int, res *TrainResult) error {
	xs, labels, weights := data.Examples(t, step, cfg)
	if len(xs) == 0 {
		return fmt.Errorf("core: no training examples for horizon step %d", step)
	}
	res.Examples[step] = len(xs)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(step)))
	trainer := nn.NewTrainer(t.Nets[step], &nn.Adam{LR: cfg.LR})
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	bx := make([][]float64, 0, cfg.BatchSize)
	bl := make([]int, 0, cfg.BatchSize)
	bw := make([]float64, 0, cfg.BatchSize)
	var last float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sum, batches := 0.0, 0
		for at := 0; at < len(idx); at += cfg.BatchSize {
			end := at + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			bx, bl, bw = bx[:0], bl[:0], bw[:0]
			for _, j := range idx[at:end] {
				bx = append(bx, xs[j])
				bl = append(bl, labels[j])
				bw = append(bw, weights[j])
			}
			sum += trainer.TrainClassBatch(bx, bl, bw)
			batches++
		}
		last = sum / float64(batches)
	}
	res.Loss[step] = last
	return nil
}

// EvalResult reports held-out predictor quality for one horizon step — the
// metrics behind Figure 7.
type EvalResult struct {
	CrossEntropy float64 // nats; lower is better
	Accuracy     float64 // fraction of exactly-right bins
	Within1      float64 // fraction within one bin of the truth
}

// evalBatchRows is how many examples the evaluation sweeps push through the
// TTP per batched forward pass.
const evalBatchRows = 256

// forEachDistRow streams the dataset through the predictor's network for
// `step` in batches and calls visit with each example's index and raw
// output distribution. The dist slice is reused between calls.
func forEachDistRow(pred *Predictor, step int, xs [][]float64, visit func(i int, dist []float64)) {
	rows := evalBatchRows
	if len(xs) < rows {
		rows = len(xs)
	}
	dim := pred.TTP.Cfg.Dim()
	buf := make([]float64, rows*dim)
	dists := make([]float64, rows*abr.NumBins)
	for at := 0; at < len(xs); at += rows {
		b := len(xs) - at
		if b > rows {
			b = rows
		}
		for r := 0; r < b; r++ {
			if len(xs[at+r]) != dim {
				panic(fmt.Sprintf("core: example %d has %d features, want %d", at+r, len(xs[at+r]), dim))
			}
			copy(buf[r*dim:(r+1)*dim], xs[at+r])
		}
		pred.PredictFeaturesBatch(step, buf[:b*dim], b, dists[:b*abr.NumBins])
		for r := 0; r < b; r++ {
			visit(at+r, dists[r*abr.NumBins:(r+1)*abr.NumBins])
		}
	}
}

// Evaluate scores the TTP on a dataset (typically held-out) at one step.
func Evaluate(t *TTP, data *Dataset, step int) EvalResult {
	cfg := TrainConfig{} // no windowing or weighting for evaluation
	xs, labels, _ := data.Examples(t, step, cfg)
	if len(xs) == 0 {
		return EvalResult{}
	}
	pred := NewPredictor(t, ModeProbabilistic)
	var ce float64
	var hit, near int
	forEachDistRow(pred, step, xs, func(i int, dist []float64) {
		// For the throughput-kind TTP, labels are throughput bins and
		// the raw output distribution is over throughput bins too, so
		// cross-entropy is comparable within a kind. Figure 7 compares
		// prediction of *transmission time*, so convert when needed.
		p := dist[labels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		ce += -ln(p)
		am := nn.ArgMax(dist)
		if am == labels[i] {
			hit++
		}
		if am >= labels[i]-1 && am <= labels[i]+1 {
			near++
		}
	})
	n := float64(len(xs))
	return EvalResult{CrossEntropy: ce / n, Accuracy: float64(hit) / n, Within1: float64(near) / n}
}

// EvaluateTransTime scores any TTP variant on its ability to predict
// *transmission time* bins, converting throughput-kind outputs first. This
// is the apples-to-apples Figure 7 comparison.
func EvaluateTransTime(t *TTP, data *Dataset, step int) EvalResult {
	return EvaluateTransTimeMode(t, data, step, ModeProbabilistic)
}

// EvaluateTransTimeMode is EvaluateTransTime with an explicit prediction
// mode, so the "Point Estimate" ablation can be scored on the collapsed
// distribution it actually feeds the controller.
func EvaluateTransTimeMode(t *TTP, data *Dataset, step int, mode Mode) EvalResult {
	xs, sizes, ttLabels := transTimeExamples(t, data, step)
	if len(xs) == 0 {
		return EvalResult{}
	}
	pred := NewPredictor(t, mode)
	dist := make([]float64, abr.NumBins)
	var ce float64
	var hit, near int
	forEachDistRow(pred, step, xs, func(i int, raw []float64) {
		pred.finishDist(dist, raw, sizes[i])
		p := dist[ttLabels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		ce += -ln(p)
		am := nn.ArgMax(dist)
		if am == ttLabels[i] {
			hit++
		}
		if am >= ttLabels[i]-1 && am <= ttLabels[i]+1 {
			near++
		}
	})
	n := float64(len(xs))
	return EvalResult{CrossEntropy: ce / n, Accuracy: float64(hit) / n, Within1: float64(near) / n}
}

// transTimeExamples builds features plus the proposed sizes and
// transmission-time labels for step.
func transTimeExamples(t *TTP, d *Dataset, step int) (xs [][]float64, sizes []float64, labels []int) {
	fc := t.Cfg
	hist := make([]abr.ChunkRecord, 0, fc.HistLen)
	for _, s := range d.Streams {
		for i := 0; i+step < len(s.Chunks); i++ {
			target := s.Chunks[i+step]
			hist = hist[:0]
			lo := i - fc.HistLen
			if lo < 0 {
				lo = 0
			}
			for _, c := range s.Chunks[lo:i] {
				hist = append(hist, abr.ChunkRecord{Size: c.Size, TransTime: c.TransTime})
			}
			x := make([]float64, fc.Dim())
			fc.Assemble(x, hist, s.Chunks[i].Info, target.Size)
			xs = append(xs, x)
			sizes = append(sizes, target.Size)
			labels = append(labels, abr.BinIndex(target.TransTime))
		}
	}
	return xs, sizes, labels
}

func ln(x float64) float64 { return math.Log(x) }
