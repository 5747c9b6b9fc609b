package stats

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"puffer/internal/wire"
)

// These tests pin the cross-process transport contract the dist engine
// leans on: the accumulators encode deterministically, survive the round
// trip exactly (an empty series comes back nil), and merging decoded halves
// in order reproduces the locally built whole — so shipping accumulator
// blobs between processes can never perturb a result.

// codec is either accumulator's layout.
type codec interface {
	AppendTo([]byte) []byte
	Decode(*wire.Reader)
}

// decode reads b, which must hold exactly one layout, into v.
func decode(t *testing.T, b []byte, v codec) {
	t.Helper()
	r := wire.NewReader(b)
	v.Decode(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamAccGobRoundTrip keeps the gob codec's name; it round-trips the wire layout.
func TestStreamAccGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var a StreamAcc
	for _, p := range randPoints(rng, 200) {
		a.Add(p)
	}
	b := a.AppendTo(nil)
	if !bytes.Equal(b, a.AppendTo(nil)) {
		t.Fatal("StreamAcc encoding is not deterministic")
	}
	var got StreamAcc
	decode(t, b, &got)
	if !reflect.DeepEqual(got.Points, a.Points) {
		t.Fatal("StreamAcc changed across the round trip")
	}
	empty := StreamAcc{Points: []StreamPoint{}}
	decode(t, empty.AppendTo(nil), &got)
	if got.Points != nil {
		t.Fatal("an empty StreamAcc decoded non-nil")
	}
}

// TestWeightedAccGobRoundTrip keeps the gob codec's name; it round-trips the wire layout.
func TestWeightedAccGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var a WeightedAcc
	for i := 0; i < 200; i++ {
		a.Add(rng.NormFloat64(), 1+rng.ExpFloat64())
	}
	b := a.AppendTo(nil)
	if !bytes.Equal(b, a.AppendTo(nil)) {
		t.Fatal("WeightedAcc encoding is not deterministic")
	}
	var got WeightedAcc
	decode(t, b, &got)
	if !reflect.DeepEqual(got.Values, a.Values) || !reflect.DeepEqual(got.Weights, a.Weights) {
		t.Fatal("WeightedAcc changed across the round trip")
	}
	empty := WeightedAcc{Values: []float64{}, Weights: []float64{}}
	decode(t, empty.AppendTo(nil), &got)
	if got.Values != nil || got.Weights != nil {
		t.Fatal("an empty WeightedAcc decoded non-nil")
	}
	r := wire.NewReader(wire.AppendF64s(wire.AppendF64s(nil, []float64{1, 2}), []float64{1}))
	got.Decode(&r)
	if r.Done() == nil {
		t.Fatal("a WeightedAcc with fewer weights than values decoded")
	}
}

// TestStreamAccWireMergeOrder: two shards built locally, shipped through
// the codec, and merged in shard order equal the accumulator built in one
// process — and the merged encoding is itself the canonical bytes.
func TestStreamAccWireMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randPoints(rng, 300)

	var whole StreamAcc
	for _, p := range pts {
		whole.Add(p)
	}

	var s0, s1 StreamAcc
	for _, p := range pts[:140] {
		s0.Add(p)
	}
	for _, p := range pts[140:] {
		s1.Add(p)
	}
	var d0, d1 StreamAcc
	decode(t, s0.AppendTo(nil), &d0)
	decode(t, s1.AppendTo(nil), &d1)
	var merged StreamAcc
	merged.Merge(&d0)
	merged.Merge(&d1)

	if !bytes.Equal(merged.AppendTo(nil), whole.AppendTo(nil)) {
		t.Fatal("wire-merged StreamAcc is not byte-identical to the locally built whole")
	}
	rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	if merged.Bootstrap(rngA) != whole.Bootstrap(rngB) {
		t.Fatal("wire-merged bootstrap differs from the locally built whole")
	}
}
