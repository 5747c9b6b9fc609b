package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Captured at the commit before the trainer moved onto the gradient slab and
// the SIMD primitives (PR 19's head), from this exact test body.
const (
	goldenTrainModelSHA = "63a91571c298ae8d4d3577dc15d6d31bb658909ddef0772d269db3f0eb4d263f"
	goldenTrainLoss     = "[0x1.5dbc4abf4cbep+01 0x1.614ed50bb81bdp+01 0x1.657855c4399e5p+01 0x1.851f79d328e84p+01 0x1.6318fe373a20ep+01]"
)

// TestTrainGolden pins core.Train bit for bit: the saved model's SHA-256 and
// the hex of the final losses for a default-shaped TTP (five 22→64→64→21
// nets, trained concurrently over one shared dataset — so -race -count=10 on
// this test is also the sharing check) on a fixed three-day synthetic window
// with DefaultTrainConfig. Any reassociated sum, fused multiply-add or
// reordered Adam operation in the training path moves these.
func TestTrainGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp is a different implementation off amd64")
	}
	rng := rand.New(rand.NewSource(20))
	data := &Dataset{}
	for day := 0; day < 3; day++ {
		data.Streams = append(data.Streams, synthDataset(rng, 10, 24, day).Streams...)
	}
	ttp := NewTTP(rand.New(rand.NewSource(21)), DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	res, err := Train(ttp, data, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ttp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != goldenTrainModelSHA {
		t.Errorf("model SHA-256 = %s, want %s", got, goldenTrainModelSHA)
	}
	if got := fmt.Sprintf("%x", res.Loss); got != goldenTrainLoss {
		t.Errorf("losses = %s, want %s", got, goldenTrainLoss)
	}
}
