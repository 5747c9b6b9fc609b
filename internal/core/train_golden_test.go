package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The losses were captured at the commit before the trainer moved onto the
// gradient slab and the SIMD primitives, from this exact test body. The
// parameter SHA was measured equal on the last gob build and on the
// fixed-layout codec; the model SHA is the codec's file bytes, re-pinned
// when ttp.model left gob, and moves with the layout alone.
const (
	goldenTrainParamSHA = "f38229d6f363ad86b56b7e0c6b4cdf8fa9d3d819c15ac28837eeb031e52bc10d"
	goldenTrainModelSHA = "2ef7710bedc2fb9a96b66f63bd132df33f612aa83efd55586cd28cf8fd83fc2c"
	goldenTrainLoss     = "[0x1.5dbc4abf4cbep+01 0x1.614ed50bb81bdp+01 0x1.657855c4399e5p+01 0x1.851f79d328e84p+01 0x1.6318fe373a20ep+01]"
)

// TestTrainGolden pins core.Train bit for bit: the SHA-256 of the trained
// parameters (each net's W[l] then B[l], big-endian Float64bits), the saved
// model's SHA-256 and the hex of the final losses for a default-shaped TTP (five 22→64→64→21
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
	params := sha256.New()
	for _, net := range ttp.Nets {
		for l := range net.W {
			for _, v := range slices.Concat(net.W[l], net.B[l]) {
				binary.Write(params, binary.BigEndian, math.Float64bits(v))
			}
		}
	}
	if got := fmt.Sprintf("%x", params.Sum(nil)); got != goldenTrainParamSHA {
		t.Errorf("parameter SHA-256 = %s, want %s", got, goldenTrainParamSHA)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(ttp.AppendTo(nil))); got != goldenTrainModelSHA {
		t.Errorf("model SHA-256 = %s, want %s", got, goldenTrainModelSHA)
	}
	if got := fmt.Sprintf("%x", res.Loss); got != goldenTrainLoss {
		t.Errorf("losses = %s, want %s", got, goldenTrainLoss)
	}
}
