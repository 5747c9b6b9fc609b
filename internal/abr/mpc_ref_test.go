package abr

import "math"

// ChooseReference is the seed controller, kept as the differential oracle
// for Choose: a per-size distribution fill followed by forward recursion
// with memoization over reachable states. It selects the same rung as Choose
// (the factored iteration only reassociates the same sums). It fills one
// size per PredictDistBatch call, so it does not share Choose's batched fill.
func (m *MPC) ChooseReference(obs *Observation) int {
	h, nQ := m.horizonDims(obs)
	if h == 0 {
		return 0
	}
	m.ensureScratch(obs.BufferCap, h, nQ)
	memo := &refMemo{
		value:   make([]float64, h*m.nBuf*nQ),
		visited: make([]bool, h*m.nBuf*nQ),
	}

	for step := 0; step < h; step++ {
		for q := 0; q < nQ; q++ {
			size := []float64{obs.Horizon[step].Versions[q].Size}
			m.Pred.PredictDistBatch(obs, step, size, m.distFor(step, q, nQ))
		}
	}

	bestQ, bestV := 0, math.Inf(-1)
	for q := 0; q < nQ; q++ {
		enc := obs.Horizon[0].Versions[q]
		v := 0.0
		for k, p := range m.distFor(0, q, nQ) {
			if p == 0 {
				continue
			}
			tt := BinValue(k)
			stall := math.Max(tt-obs.Buffer, 0)
			qoe := m.Weights.Chunk(enc.SSIMdB, obs.LastSSIM, stall, obs.LastQuality >= 0)
			next := m.nextBuffer(obs.Buffer, tt)
			v += p * (qoe + m.refValueAt(memo, obs, 1, h, nQ, next, q))
		}
		if v > bestV {
			bestV, bestQ = v, q
		}
	}
	return bestQ
}

// refMemo is ChooseReference's memo table, indexed (step*nBuf+bufBin)*nQ+prevQ.
type refMemo struct {
	value   []float64
	visited []bool
}

// refValueAt is the memoized value function v*(step, buffer, prevQuality):
// the best expected QoE obtainable from horizon step `step` onward, given
// the buffer level and that the chunk at step-1 was sent at prevQ. Only
// states reachable from the root are ever computed (the paper's "forward
// recursion with memoization").
func (m *MPC) refValueAt(memo *refMemo, obs *Observation, step, h, nQ int, buf float64, prevQ int) float64 {
	if step >= h {
		return 0
	}
	bb := m.bufBin(buf)
	idx := (step*m.nBuf+bb)*nQ + prevQ
	if memo.visited[idx] {
		return memo.value[idx]
	}
	bufQ := float64(bb) * m.BufStep // quantized buffer for child states
	prevSSIM := obs.Horizon[step-1].Versions[prevQ].SSIMdB

	best := math.Inf(-1)
	for q := 0; q < nQ; q++ {
		enc := obs.Horizon[step].Versions[q]
		v := 0.0
		for k, p := range m.distFor(step, q, nQ) {
			if p == 0 {
				continue
			}
			tt := BinValue(k)
			stall := math.Max(tt-bufQ, 0)
			qoe := m.Weights.Chunk(enc.SSIMdB, prevSSIM, stall, true)
			next := m.nextBuffer(bufQ, tt)
			v += p * (qoe + m.refValueAt(memo, obs, step+1, h, nQ, next, q))
		}
		if v > best {
			best = v
		}
	}
	memo.visited[idx] = true
	memo.value[idx] = best
	return best
}
