package nn

import "math"

// Softmax writes the softmax of logits into dst (which must be the same
// length) using the max-subtraction trick for numerical stability.
func Softmax(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic("nn: Softmax length mismatch")
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	inv := 1.0 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// affineBatch computes dst = x·Wᵀ + b for a block of samples: x is a
// rows × nIn row-major input matrix, w a nOut × nIn row-major weight matrix,
// and dst the rows × nOut output matrix. The kernel blocks two samples by
// four outputs so each loaded weight is reused across samples and each
// loaded input across outputs, with eight independent accumulator chains to
// hide FMA latency. Every output element is still accumulated in ascending
// input order starting from its bias, so results are bitwise identical to a
// plain per-sample dot product.
func affineBatch(dst, x, w, bias []float64, rows, nIn, nOut int) {
	r := 0
	for ; r+2 <= rows; r += 2 {
		x0 := x[r*nIn : r*nIn+nIn]
		x1 := x[(r+1)*nIn : (r+1)*nIn+nIn]
		d0 := dst[r*nOut : r*nOut+nOut]
		d1 := dst[(r+1)*nOut : (r+1)*nOut+nOut]
		o := 0
		for ; o+4 <= nOut; o += 4 {
			w0 := w[o*nIn : o*nIn+nIn]
			w1 := w[(o+1)*nIn : (o+1)*nIn+nIn]
			w2 := w[(o+2)*nIn : (o+2)*nIn+nIn]
			w3 := w[(o+3)*nIn : (o+3)*nIn+nIn]
			a00, a01, a02, a03 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			a10, a11, a12, a13 := a00, a01, a02, a03
			for i := 0; i < nIn; i++ {
				xi0, xi1 := x0[i], x1[i]
				wv := w0[i]
				a00 += wv * xi0
				a10 += wv * xi1
				wv = w1[i]
				a01 += wv * xi0
				a11 += wv * xi1
				wv = w2[i]
				a02 += wv * xi0
				a12 += wv * xi1
				wv = w3[i]
				a03 += wv * xi0
				a13 += wv * xi1
			}
			d0[o], d0[o+1], d0[o+2], d0[o+3] = a00, a01, a02, a03
			d1[o], d1[o+1], d1[o+2], d1[o+3] = a10, a11, a12, a13
		}
		for ; o < nOut; o++ {
			row := w[o*nIn : o*nIn+nIn]
			a0, a1 := bias[o], bias[o]
			for i, wv := range row {
				a0 += wv * x0[i]
				a1 += wv * x1[i]
			}
			d0[o], d1[o] = a0, a1
		}
	}
	if r < rows {
		x0 := x[r*nIn : r*nIn+nIn]
		d0 := dst[r*nOut : r*nOut+nOut]
		o := 0
		for ; o+4 <= nOut; o += 4 {
			w0 := w[o*nIn : o*nIn+nIn]
			w1 := w[(o+1)*nIn : (o+1)*nIn+nIn]
			w2 := w[(o+2)*nIn : (o+2)*nIn+nIn]
			w3 := w[(o+3)*nIn : (o+3)*nIn+nIn]
			a0, a1, a2, a3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			for i, xi := range x0 {
				a0 += w0[i] * xi
				a1 += w1[i] * xi
				a2 += w2[i] * xi
				a3 += w3[i] * xi
			}
			d0[o], d0[o+1], d0[o+2], d0[o+3] = a0, a1, a2, a3
		}
		for ; o < nOut; o++ {
			row := w[o*nIn : o*nIn+nIn]
			a := bias[o]
			for i, wv := range row {
				a += wv * x0[i]
			}
			d0[o] = a
		}
	}
}

// reluInPlace clamps every entry that is not > 0 to +0 (so negatives, -0
// and NaN all become +0).
func reluInPlace(v []float64) {
	for i, x := range v {
		if !(x > 0) {
			v[i] = 0
		}
	}
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax(x []float64) int {
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Entropy returns the Shannon entropy (nats) of the distribution p.
// Zero-probability entries contribute zero.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}
