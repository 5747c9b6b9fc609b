package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"puffer/internal/abr"
	"puffer/internal/nn"
	"puffer/internal/obs"
	"puffer/internal/tcpsim"
)

// Retrain-phase metrics (write-only; see the obs package contract): one
// observation per horizon step per Train, splitting the runner's
// runner_retrain_wall_ns into building a step's examples and fitting its net.
var (
	trainExamplesNS = obs.Default.Histogram("core_train_examples_ns")
	trainFitNS      = obs.Default.Histogram("core_train_fit_ns")
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

// exampleRows assembles the feature row of every example for horizon step
// `step`, in stream then send order: the state at decision time i (history
// of the chunks before i, tcp_info at i) plus the size of the target chunk
// i+step. Targets that keep rejects are skipped (nil keeps all). It is the
// one definition of an example's layout — the trainer and Figure 7's
// evaluator both build on it. Rows are carved from a single slab (counted
// first, then filled), each a view with capped capacity; targets[i] is row
// i's target chunk, from which callers derive labels, weights and sizes.
func (d *Dataset) exampleRows(fc FeatureConfig, step int, keep func(target *ChunkObs) bool) (xs [][]float64, targets []*ChunkObs) {
	n := 0
	for _, s := range d.Streams {
		for i := step; i < len(s.Chunks); i++ {
			if keep == nil || keep(&s.Chunks[i]) {
				n++
			}
		}
	}
	dim := fc.Dim()
	slab := make([]float64, n*dim)
	xs = make([][]float64, 0, n)
	targets = make([]*ChunkObs, 0, n)
	hist := make([]abr.ChunkRecord, 0, fc.HistLen)
	for _, s := range d.Streams {
		for i := 0; i+step < len(s.Chunks); i++ {
			target := &s.Chunks[i+step]
			if keep != nil && !keep(target) {
				continue
			}
			hist = hist[:0]
			for _, c := range s.Chunks[max(0, i-fc.HistLen):i] {
				hist = append(hist, abr.ChunkRecord{Size: c.Size, TransTime: c.TransTime})
			}
			at := len(xs) * dim
			x := slab[at : at+dim : at+dim]
			fc.Assemble(x, hist, s.Chunks[i].Info, target.Size)
			xs = append(xs, x)
			targets = append(targets, target)
		}
	}
	return xs, targets
}

// Examples materializes supervised examples for horizon step `step` (see
// exampleRows for the features); the label is the observed outcome of the
// target chunk. Windowing and recency weights follow cfg.
func (d *Dataset) Examples(t *TTP, step int, cfg TrainConfig) (xs [][]float64, labels []int, weights []float64) {
	return d.examples(t, step, cfg, d.MaxDay())
}

// examples is Examples with the dataset's MaxDay supplied, so Train scans
// for it once rather than once per horizon step.
func (d *Dataset) examples(t *TTP, step int, cfg TrainConfig, maxDay int) (xs [][]float64, labels []int, weights []float64) {
	var inWindow func(*ChunkObs) bool
	if cfg.WindowDays > 0 {
		inWindow = func(target *ChunkObs) bool { return maxDay-target.Day < cfg.WindowDays }
	}
	xs, targets := d.exampleRows(t.Cfg, step, inWindow)
	labels = make([]int, len(xs))
	weights = make([]float64, len(xs))
	for i, target := range targets {
		labels[i] = t.Label(target.Size, target.TransTime)
		weights[i] = 1
		if cfg.RecencyBase > 0 && cfg.RecencyBase != 1 {
			weights[i] = pow(cfg.RecencyBase, maxDay-target.Day)
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
	maxDay := data.MaxDay()
	var wg sync.WaitGroup
	for step := range t.Nets {
		wg.Add(1)
		go func(step int) {
			defer wg.Done()
			errs[step] = trainStep(t, data, cfg, maxDay, step, &res)
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
func trainStep(t *TTP, data *Dataset, cfg TrainConfig, maxDay, step int, res *TrainResult) error {
	t0 := obs.Now()
	xs, labels, weights := data.examples(t, step, cfg, maxDay)
	trainExamplesNS.ObserveSince(t0)
	if len(xs) == 0 {
		return fmt.Errorf("core: no training examples for horizon step %d", step)
	}
	t0 = obs.Now()
	defer trainFitNS.ObserveSince(t0)
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

// evalScore accumulates EvalResult's three metrics over scored examples.
type evalScore struct {
	ce        float64
	hit, near int
}

// add scores one predicted distribution against its true bin.
func (e *evalScore) add(dist []float64, label int) {
	e.ce -= math.Log(max(dist[label], 1e-12))
	am := nn.ArgMax(dist)
	if am == label {
		e.hit++
	}
	if am >= label-1 && am <= label+1 {
		e.near++
	}
}

func (e *evalScore) result(examples int) EvalResult {
	n := float64(examples)
	return EvalResult{CrossEntropy: e.ce / n, Accuracy: float64(e.hit) / n, Within1: float64(e.near) / n}
}

// EvaluateTransTimeMode scores any TTP variant on a dataset (typically
// held-out) at one step, on its ability to predict *transmission time* bins
// — throughput-kind outputs are converted first — which is the
// apples-to-apples Figure 7 comparison. The prediction mode is explicit so
// the "Point Estimate" ablation is scored on the collapsed distribution it
// actually feeds the controller.
func EvaluateTransTimeMode(t *TTP, data *Dataset, step int, mode Mode) EvalResult {
	xs, sizes, ttLabels := transTimeExamples(t, data, step)
	if len(xs) == 0 {
		return EvalResult{}
	}
	pred := NewPredictor(t, mode)
	dist := make([]float64, abr.NumBins)
	var score evalScore
	forEachDistRow(pred, step, xs, func(i int, raw []float64) {
		pred.finishDist(dist, raw, sizes[i])
		score.add(dist, ttLabels[i])
	})
	return score.result(len(xs))
}

// transTimeExamples builds features plus the proposed sizes and
// transmission-time labels for step.
func transTimeExamples(t *TTP, d *Dataset, step int) (xs [][]float64, sizes []float64, labels []int) {
	xs, targets := d.exampleRows(t.Cfg, step, nil)
	sizes = make([]float64, len(xs))
	labels = make([]int, len(xs))
	for i, target := range targets {
		sizes[i] = target.Size
		labels[i] = abr.BinIndex(target.TransTime)
	}
	return xs, sizes, labels
}
