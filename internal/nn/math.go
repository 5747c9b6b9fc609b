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
			h -= float64(v * math.Log(v))
		}
	}
	return h
}
