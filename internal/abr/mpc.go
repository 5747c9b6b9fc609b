package abr

import (
	"math"

	"puffer/internal/media"
	"puffer/internal/nn"
	metrics "puffer/internal/obs"
)

// Controller stage timers (write-only; see the obs package contract).
// predict covers the distribution fill (a staging no-op under a deferring
// predictor — the NN time then lands in nn_packed_forward_ns instead);
// plan covers the factored value iteration.
var (
	mpcPredictNS = metrics.Default.Histogram("abr_mpc_predict_ns")
	mpcPlanNS    = metrics.Default.Histogram("abr_mpc_plan_ns")
)

// Predictor supplies the MPC engine with probability distributions over the
// transmission time of proposed chunks. Deterministic predictors (harmonic
// mean) return one-hot distributions; the TTP returns its full softmax.
type Predictor interface {
	// PredictDistBatch fills dists[q*NumBins:(q+1)*NumBins] with the
	// probability that sending a chunk of size sizes[q], `step` positions
	// ahead of the current decision (step 0 = the chunk being decided),
	// lands in each transmission-time bin. The MPC makes one call per
	// horizon step with every candidate size, which lets NN-backed
	// predictors run one matrix-matrix pass per layer over all rungs. A
	// row depends on (obs, step, sizes[q]) alone, not on the other sizes.
	PredictDistBatch(obs *Observation, step int, sizes []float64, dists []float64)
}

// MPC is the paper's §4.4 controller: a stochastic model-predictive
// controller maximizing expected cumulative QoE (Equation 1) over a lookahead
// horizon by value iteration over a discretized buffer, shared verbatim by
// MPC-HM, RobustMPC-HM, and Fugu (only the Predictor differs).
//
// Choose fills the distributions (one Predictor call per horizon step) and
// runs a backward value iteration that factors the prediction expectation
// out of the previous-quality dimension — the expected-stall and
// continuation terms of a candidate quality do not depend on which quality
// preceded it, so they are computed once per (step, q, buffer) instead of
// once per (step, q, buffer, prevQ). The seed planner, a memoized forward
// recursion, lives in this package's tests as the differential oracle.
type MPC struct {
	AlgName string
	Pred    Predictor
	Weights QoEWeights
	Horizon int     // lookahead chunks (paper: 5)
	BufStep float64 // buffer discretization (seconds per bin)

	// Scratch, reused across decisions. Every slice below is a view of
	// the one slab, carved by ensureScratch.
	f64    []float64
	dists  []float64 // predicted distributions, indexed (step*nQ+q)*NumBins
	sizes  []float64 // candidate sizes for one step's batched fill
	nBuf   int
	bufCap float64
	// pendH/pendNQ carry the horizon dimensions from PrepareChoose to
	// FinishChoose.
	pendH, pendNQ int

	// Outcome tables over the quantized buffer grid. They depend on
	// (bufCap, BufStep) alone — gridStep is the BufStep they were built
	// for — so a session builds them once.
	gridStep float64
	cdBin    int            // post-stall buffer bin: one chunk, capped
	pad      int            // max(off): copies of the top bin kept after each value row
	lo       [NumBins]int32 // k -> lowest buffer bin from which outcome k does not stall (nBuf: none)
	off      [NumBins]int32 // k -> successor bin offset: outcome k takes bb >= lo[k] to min(bb+off[k], nBuf-1)

	// factored value-iteration scratch, carved for scrNQ rungs
	scrNQ  int
	suffP  [NumBins + 1]float64 // suffix sums over one distribution: suffP[k] = Σ_{j>=k} p_j
	suffTT [NumBins + 1]float64 // suffTT[k] = Σ_{j>=k} p_j·tt_j
	vCur   []float64            // value planes, indexed prevQ*(nBuf+pad)+bufBin
	vNext  []float64
	base   []float64 // (q*nBuf+bb) -> expected stall penalty + continuation
	qual   []float64 // (prevQ*nQ+q) -> quality and variation terms
	sumP   []float64 // per-q distribution mass (1 up to rounding)
}

// NewMPC builds the controller with the paper's defaults: horizon 5,
// 0.25-second buffer bins.
func NewMPC(name string, pred Predictor, w QoEWeights) *MPC {
	return &MPC{AlgName: name, Pred: pred, Weights: w, Horizon: 5, BufStep: 0.25}
}

// Name implements Algorithm.
func (m *MPC) Name() string { return m.AlgName }

// Reset implements Algorithm.
func (m *MPC) Reset() {
	if r, ok := m.Pred.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// horizonDims clamps the planning horizon to the observation and returns
// (h, nQ); h == 0 means there is nothing to decide.
func (m *MPC) horizonDims(obs *Observation) (int, int) {
	h := m.Horizon
	if h > len(obs.Horizon) {
		h = len(obs.Horizon)
	}
	if h == 0 {
		return 0, 0
	}
	return h, len(obs.Horizon[0].Versions)
}

// Choose implements Algorithm: it plans a trajectory over the horizon and
// returns the first step's rung.
func (m *MPC) Choose(obs *Observation) int {
	m.PrepareChoose(obs)
	return m.FinishChoose(obs)
}

// PrepareChoose implements DeferredAlgorithm: it sizes the planning tables
// and fills (or, with a deferring predictor, stages) the horizon's
// transmission-time distributions. Choose is exactly PrepareChoose followed
// by FinishChoose, so splitting a decision around an external batched
// inference service changes nothing about its outcome.
func (m *MPC) PrepareChoose(obs *Observation) {
	h, nQ := m.horizonDims(obs)
	m.pendH, m.pendNQ = h, nQ
	if h == 0 {
		return
	}
	m.ensureScratch(obs.BufferCap, h, nQ)
	t0 := metrics.Now()
	m.fillDists(obs, h, nQ)
	mpcPredictNS.ObserveSince(t0)
}

// FinishChoose implements DeferredAlgorithm: it runs the value iteration
// over the distributions prepared (and by now filled) for obs.
func (m *MPC) FinishChoose(obs *Observation) int {
	if m.pendH == 0 {
		return 0
	}
	t0 := metrics.Now()
	q := m.plan(obs, m.pendH, m.pendNQ)
	mpcPlanNS.ObserveSince(t0)
	return q
}

// fillDists computes each of the h*nQ transmission-time distributions
// exactly once, one Predictor call per horizon step; predictions depend only
// on (step, proposed size), not on the planner's state.
func (m *MPC) fillDists(obs *Observation, h, nQ int) {
	sizes := m.sizes[:nQ]
	for step := 0; step < h; step++ {
		for q := 0; q < nQ; q++ {
			sizes[q] = obs.Horizon[step].Versions[q].Size
		}
		m.Pred.PredictDistBatch(obs, step, sizes, m.dists[step*nQ*NumBins:(step+1)*nQ*NumBins])
	}
}

// distFor returns the cached distribution slice for (step, quality).
func (m *MPC) distFor(step, q, nQ int) []float64 {
	at := (step*nQ + q) * NumBins
	return m.dists[at : at+NumBins]
}

// ensureScratch sizes the planning scratch for this decision's dimensions:
// the outcome tables when the buffer grid changed, the float64 views when
// the grid, the ladder or a longer horizon did. A session's steady state
// (and its horizon running out at the end of the stream) does neither.
func (m *MPC) ensureScratch(bufCap float64, h, nQ int) {
	if bufCap <= 0 {
		bufCap = 15
	}
	distNeed := h * nQ * NumBins
	regrid := bufCap != m.bufCap || m.BufStep != m.gridStep
	if regrid {
		m.bufCap, m.gridStep = bufCap, m.BufStep
		m.nBuf = int(bufCap/m.BufStep) + 1
		m.buildGrid()
	}
	if regrid || nQ != m.scrNQ || distNeed > cap(m.dists) {
		m.scrNQ = nQ
		plane := nQ * (m.nBuf + m.pad)
		m.f64 = grow(m.f64, 2*plane+nQ*m.nBuf+nQ*nQ+2*nQ+distNeed)
		rest := m.f64
		carve := func(n int) []float64 {
			v := rest[:n:n]
			rest = rest[n:]
			return v
		}
		m.vCur, m.vNext = carve(plane), carve(plane)
		m.base, m.qual = carve(nQ*m.nBuf), carve(nQ*nQ)
		m.sumP, m.sizes = carve(nQ), carve(nQ)
		m.dists = rest // last: a shorter horizon is a shorter view
	}
	m.dists = m.dists[:distNeed]
}

// buildGrid fills the outcome tables for the current (bufCap, BufStep): per
// outcome bin, the lowest buffer bin from which it does not stall (two
// pointers; BinValue and the buffer grid are both increasing) and how far it
// moves the buffer from there. The offset is read off bufBin(nextBuffer(…))
// at lo[k], the one place the successor bin is computed; see plan for why it
// holds for every bin above.
func (m *MPC) buildGrid() {
	m.cdBin = m.bufBin(m.nextBuffer(0, BinValue(NumBins-1)))
	m.pad = 0
	k := 0
	for bb := 0; bb < m.nBuf; bb++ {
		buf := float64(bb) * m.BufStep
		for ; k < NumBins && BinValue(k) <= buf; k++ {
			m.lo[k] = int32(bb)
			m.off[k] = int32(m.bufBin(m.nextBuffer(buf, BinValue(k))) - bb)
			m.pad = max(m.pad, int(m.off[k]))
		}
	}
	for ; k < NumBins; k++ {
		m.lo[k], m.off[k] = int32(m.nBuf), 0 // stalls from every bin
	}
}

// binValues is BinValue as a table, for the planner's suffix sums.
var binValues = func() (v [NumBins]float64) {
	for k := range v {
		v[k] = BinValue(k)
	}
	return v
}()

// grow resizes s to n elements, reusing capacity when possible.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// plan runs the factored backward value iteration and returns the best rung
// for the root step. It is algebraically identical to the seed's memoized
// recursion (the differential oracle in this package's tests): for a
// candidate quality q at step s from quantized buffer b,
//
//	v(q | b, prevQ) = Σ_k p[k]·(ssim_q − λ|ssim_q − ssim_prevQ| − µ·stall(k,b) + V_{s+1}(next(k,b), q))
//
// and only the first two terms depend on prevQ, so the per-(q,b) expectation
// is hoisted out of the prevQ loop.
//
// The expected-stall and tail-continuation terms are suffix-summed: from
// buffer b, exactly the outcome bins k ≥ k0(b) (those with tt_k > b) stall,
// contributing Σ p_k·(tt_k − b) = suffTT[k0] − b·suffP[k0]; and every
// stalling outcome drains the buffer to empty, so its successor state is the
// constant one-chunk bin and its continuation is V_{s+1}(cd)·suffP[k0]. k0
// is constant over the run of bins lo[k0-1] ≤ bb < lo[k0].
//
// The non-stalling head k < k0(b) is a shifted accumulate. Outcome k does
// not stall from bins bb ≥ lo[k], and there the buffer dynamics are a pure
// translation: bb·BufStep − tt_k + one chunk, capped, lands in bin
// min(bb + off[k], nBuf−1) with one offset per outcome (bufBin rounds
// bb + (chunk − tt_k)/BufStep + ½ down, and bb is an integer; the cap and
// bufBin's clamp both stop at the top bin). So the head's contribution to
// base[q] is, for each k, p[k] times the value row read off[k] bins away —
// contiguous, no successor table. Each value row carries pad = max(off)
// copies of its top bin after it, so reading past the end *is* the clamp.
// Every base[q][bb] starts from the suffix term and takes its p[k]·V terms
// in ascending k, skipping p[k] = 0 — bin by bin the same adds in the same
// order as summing Σ_{k<k0} p[k]·V(next(k,bb)) through a successor table, so
// the order of the loops changes no bit of the result.
func (m *MPC) plan(obs *Observation, h, nQ int) int {
	nBuf, vStride := m.nBuf, m.nBuf+m.pad
	mu, lambda := m.Weights.Mu, m.Weights.Lambda

	// Backward induction: vNext starts as V_h ≡ 0 and after the loop body
	// for step s holds V_s (value planes indexed prevQ*vStride+bufBin).
	vCur, vNext := m.vCur, m.vNext
	clear(vNext)
	for s := h - 1; s >= 1; s-- {
		for q := 0; q < nQ; q++ {
			d := m.distFor(s, q, nQ)
			m.suffP[NumBins], m.suffTT[NumBins] = 0, 0
			sp, st := 0.0, 0.0
			for k := NumBins - 1; k >= 0; k-- {
				sp += d[k]
				st += d[k] * binValues[k]
				m.suffP[k] = sp
				m.suffTT[k] = st
			}
			m.sumP[q] = sp
			vrow := vNext[q*vStride : (q+1)*vStride]
			brow := m.base[q*nBuf : (q+1)*nBuf]
			vcd := vrow[m.cdBin]
			// The suffix term, by runs of buffer bins that share their
			// first stalling outcome k0: the bins below lo[k0] and not
			// below lo[k0-1].
			bb := 0
			for k0 := 0; k0 <= NumBins; k0++ {
				end := nBuf
				if k0 < NumBins {
					end = int(m.lo[k0])
				}
				sp, st := m.suffP[k0], m.suffTT[k0]
				cont := vcd * sp
				for ; bb < end; bb++ {
					buf := float64(bb) * m.BufStep
					brow[bb] = cont - mu*(st-buf*sp)
				}
			}
			nn.ShiftedAccum(brow, vrow, d, m.lo[:], m.off[:])
		}
		for pq := 0; pq < nQ; pq++ {
			sp := obs.Horizon[s-1].Versions[pq].SSIMdB
			for q := 0; q < nQ; q++ {
				sq := obs.Horizon[s].Versions[q].SSIMdB
				m.qual[pq*nQ+q] = m.sumP[q] * (sq - lambda*math.Abs(sq-sp))
			}
		}
		for pq := 0; pq < nQ; pq++ {
			row := vCur[pq*vStride : (pq+1)*vStride]
			nn.MaxPlane(row[:nBuf], m.base, m.qual[pq*nQ:(pq+1)*nQ], nBuf)
			top := row[nBuf-1]
			for i := nBuf; i < vStride; i++ {
				row[i] = top
			}
		}
		vCur, vNext = vNext, vCur
	}

	// Root step: the buffer is exact (not quantized) and the previous
	// chunk is the actually-sent one, or absent at stream start. An
	// outcome's stall and successor bin depend on the buffer alone, so
	// they are worked out once for all rungs; with h == 1 the successor
	// reads V_h ≡ 0.
	var stall [NumBins]float64
	var next [NumBins]int
	for k, tt := range binValues {
		stall[k] = math.Max(tt-obs.Buffer, 0)
		next[k] = m.bufBin(m.nextBuffer(obs.Buffer, tt))
	}
	bestQ, bestV := 0, math.Inf(-1)
	hasPrev := obs.LastQuality >= 0
	for q := 0; q < nQ; q++ {
		enc := obs.Horizon[0].Versions[q]
		vrow := vNext[q*vStride : (q+1)*vStride]
		v := 0.0
		for k, p := range m.distFor(0, q, nQ) {
			if p == 0 {
				continue
			}
			qoe := m.Weights.Chunk(enc.SSIMdB, obs.LastSSIM, stall[k], hasPrev)
			v += p * (qoe + vrow[next[k]])
		}
		if v > bestV {
			bestV, bestQ = v, q
		}
	}
	return bestQ
}

// nextBuffer applies the buffer dynamics: drain during the transfer, then
// gain one chunk of playable video, capped at the client's maximum.
func (m *MPC) nextBuffer(buf, transTime float64) float64 {
	b := math.Max(buf-transTime, 0) + media.ChunkDuration
	if b > m.bufCap {
		b = m.bufCap
	}
	return b
}

func (m *MPC) bufBin(buf float64) int {
	i := int(buf/m.BufStep + 0.5)
	if i >= m.nBuf {
		i = m.nBuf - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// HarmonicMeanPredictor is the paper's "HM" predictor: future throughput is
// the harmonic mean of the last five throughput samples, giving a
// deterministic (one-hot) transmission-time distribution of size/throughput.
// With Robust set it divides the estimate by (1+maxErr), where maxErr is the
// largest relative error the HM predictor has made on this stream (decayed
// slowly), the RobustMPC lower-bound rule: one bad surprise keeps the
// controller humble for a while.
type HarmonicMeanPredictor struct {
	Robust bool
	// Window is the number of samples (paper: 5). Zero means 5.
	Window int
	// ErrDecay multiplies the remembered max error per chunk (default
	// 0.995); only used with Robust.
	ErrDecay float64

	maxErr   float64
	lastSeen int
}

// Reset clears the per-stream error memory (called by the MPC on new
// streams).
func (p *HarmonicMeanPredictor) Reset() {
	p.maxErr = 0
	p.lastSeen = 0
}

// coldStartTput is the throughput assumed before any samples exist
// (bits/s). A conservative default must still scale with chunk size — a
// fixed "worst case" time would charge every rung the same stall and push
// the controller to the top rung on the very first chunk.
const coldStartTput = 1e6

// PredictDistBatch implements Predictor: the throughput estimate is
// computed once per step instead of once per candidate size.
func (p *HarmonicMeanPredictor) PredictDistBatch(obs *Observation, step int, sizes []float64, dists []float64) {
	tput := p.estimate(obs)
	if tput <= 0 {
		tput = coldStartTput
	}
	for i := range dists {
		dists[i] = 0
	}
	for q, size := range sizes {
		dists[q*NumBins+BinIndex(size*8/tput)] = 1
	}
}

// estimate returns the (possibly robust-discounted) throughput estimate in
// bits/s, or 0 if no history exists.
func (p *HarmonicMeanPredictor) estimate(obs *Observation) float64 {
	w := p.Window
	if w == 0 {
		w = 5
	}
	hm := harmonicMeanTail(obs.History, len(obs.History), w)
	if hm <= 0 {
		return 0
	}
	if !p.Robust {
		return hm
	}
	decay := p.ErrDecay
	if decay == 0 {
		decay = 0.995
	}
	// Fold the newest completed chunk into the error memory: the HM
	// prediction it would have received is the harmonic mean of the
	// samples preceding it.
	if n := len(obs.History); n > 0 && obs.ChunkIndex > p.lastSeen {
		p.maxErr *= decay
		pred := harmonicMeanTail(obs.History, n-1, w)
		actual := obs.History[n-1].Throughput()
		if pred > 0 && actual > 0 {
			if err := math.Abs(pred-actual) / actual; err > p.maxErr {
				p.maxErr = err
			}
		}
		p.lastSeen = obs.ChunkIndex
	}
	return hm / (1 + p.maxErr)
}

// harmonicMeanTail computes the harmonic mean of the up-to-w throughput
// samples ending just before index end (exclusive).
func harmonicMeanTail(hist []ChunkRecord, end, w int) float64 {
	start := end - w
	if start < 0 {
		start = 0
	}
	n := 0
	sumInv := 0.0
	for _, r := range hist[start:end] {
		tp := r.Throughput()
		if tp <= 0 {
			continue
		}
		sumInv += 1 / tp
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(n) / sumInv
}

// NewMPCHM returns the paper's MPC-HM scheme.
func NewMPCHM() *MPC {
	return NewMPC("MPC-HM", &HarmonicMeanPredictor{}, DefaultQoEWeights())
}

// NewRobustMPCHM returns the paper's RobustMPC-HM scheme.
func NewRobustMPCHM() *MPC {
	return NewMPC("RobustMPC-HM", &HarmonicMeanPredictor{Robust: true}, DefaultQoEWeights())
}
