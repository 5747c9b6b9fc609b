package nn

import (
	"math"
	"math/rand"
	"testing"
)

// softmaxInRange is softmaxAVX2's precondition, in Go: no NaN, and min-max
// at least -708 (false when it is NaN, as for a row with +Inf and -Inf).
func softmaxInRange(x []float64) bool {
	lo, hi := x[0], x[0]
	for _, v := range x {
		if math.IsNaN(v) {
			return false
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo-hi >= -708
}

// softmaxCheck runs softmaxAVX2 on rows of up to 40 logits, into a buffer
// with a sentinel past each row's end, and reports whether it took the row.
// It must take exactly the rows in softmaxInRange, match softmaxGo bit for
// bit on them, and write nothing on the others.
type softmaxCheck struct{ got, want []float64 }

func (c *softmaxCheck) row(t *testing.T, what string, x []float64) bool {
	t.Helper()
	n := len(x)
	if c.got == nil {
		c.got, c.want = make([]float64, 40+sentinelTail), make([]float64, 40)
	}
	got := c.got[:n+sentinelTail]
	for i := range got {
		got[i] = sentinel
	}
	took := softmaxAVX2(&got[0], &x[0], n)
	checkSentinel(t, what, got, n)
	if want := softmaxInRange(x); took != want {
		t.Fatalf("%s: softmaxAVX2 took the row = %v, want %v (x = %v)", what, took, want, x)
	}
	if !took {
		checkSentinel(t, what+" (declined)", got, 0)
		return false
	}
	softmaxGo(c.want[:n], x)
	sameFloats(t, what, got[:n], c.want[:n])
	return true
}

// TestSoftmaxVectorMatchesScalar holds the vector softmax to softmaxGo bit
// for bit: a million random rows of every width 1-40 (21, and every masked
// tail) at logit scales from 1e-3 to 300, so that the widest spreads fall
// back, then the hand rows at the edges of its range.
func TestSoftmaxVectorMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2+FMA on this machine: Softmax runs softmaxGo alone")
	}
	rng := rand.New(rand.NewSource(44))
	x := make([]float64, 40)
	var check softmaxCheck
	var took, declined int
	for row := range 1_000_000 {
		n := 1 + row%40
		scale := math.Pow(10, -3+rng.Float64()*math.Log10(300e3))
		off := rng.NormFloat64() * scale
		for i := range n {
			x[i] = off + float64(scale*rng.NormFloat64())
		}
		if check.row(t, "random row", x[:n]) {
			took++
		} else {
			declined++
		}
	}
	if took < 900_000 || declined < 1_000 {
		t.Fatalf("random rows: vector body took %d, declined %d: one side is barely exercised", took, declined)
	}

	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	seq := func(n int, f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	nanAt := func(k int) []float64 {
		v := seq(21, func(i int) float64 { return float64(i) - 10 })
		v[k] = nan
		return v
	}
	rows := []struct {
		what string
		x    []float64
	}{
		{"width 1", []float64{3.5}},
		{"width 1, -0", []float64{negZero}},
		{"NaN at 0", nanAt(0)},
		{"NaN at 9", nanAt(9)},
		{"NaN in the tail", nanAt(20)},
		{"only NaN", []float64{nan}},
		{"+Inf", []float64{1, inf, 2, 3, 4}},
		{"-Inf", []float64{1, -inf, 2, 3, 4}},
		{"+Inf and -Inf", []float64{inf, -inf}},
		{"all +Inf", []float64{inf, inf, inf}},
		{"all equal", seq(21, func(int) float64 { return -2.75 })},
		{"all equal, 1e300", seq(7, func(int) float64 { return 1e300 })},
		{"-0 max first, +0 later", []float64{negZero, -1, 0, -2, negZero}},
		{"+0 max first, -0 later", []float64{0, negZero, -3, negZero, -0.5}},
		{"707.9 below the max", []float64{0, -707.9, -1, -2, -3}},
		{"708 below the max", []float64{5, 5 - 708, 4}},
		{"708.5 below the max", []float64{0, -1, -708.5}},
		{"750 below the max", []float64{-750, 0, -1, -2, -3, -4}},
		{"max near the top", []float64{1.7e308, 1.7e308 - 1e293, 1.7e308}},
		{"spread overflows", []float64{1.7e308, -1.7e308}},
		{"subnormal logits", []float64{5e-324, -5e-324, 0, 2.2e-308}},
	}
	for _, r := range rows {
		check.row(t, r.what, r.x)
		// And through the dispatched entry, whichever body it picks.
		got, want := make([]float64, len(r.x)), make([]float64, len(r.x))
		Softmax(got, r.x)
		softmaxGo(want, r.x)
		sameFloats(t, "Softmax "+r.what, got, want)
	}

	// In place: dst the logits themselves.
	inPlace := seq(21, func(i int) float64 { return math.Sin(float64(i)) * 9 })
	want := make([]float64, 21)
	softmaxGo(want, inPlace)
	if !softmaxAVX2(&inPlace[0], &inPlace[0], 21) {
		t.Fatal("in place: declined an in-range row")
	}
	sameFloats(t, "in place", inPlace, want)
}
