package pensieve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Captured at the commit before PolicyGradStep moved onto the trainer's
// batched forward/backward (PR 20's head), from this exact test body.
const (
	goldenTrainParamSHA   = "5bf859a5bfdcbb93fe0cdb3fdde85644d7afcd280192ea7041a8f96419d5f3ae"
	goldenTrainMeanReward = "-0x1.abfe5dcd48807p+03"
)

// TestTrainGolden pins pensieve.Train bit for bit: rollouts on the packed
// snapshot, the policy-gradient step, Adam. The hash runs over the
// math.Float64bits of every W[l] then B[l], little-endian — not a file
// layout, which may change while the parameters do not.
func TestTrainGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp is a different implementation off amd64")
	}
	cfg := DefaultTrainConfig()
	cfg.Episodes = 40
	cfg.ChunksPerEp = 30
	cfg.Seed = 7
	agent, res := Train(cfg)

	h := sha256.New()
	var word [8]byte
	sum := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	net := agent.Policy()
	for l := range net.W {
		sum(net.W[l])
		sum(net.B[l])
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenTrainParamSHA {
		t.Errorf("parameter SHA-256 = %s, want %s", got, goldenTrainParamSHA)
	}
	if got := fmt.Sprintf("%x", res.MeanReward); got != goldenTrainMeanReward {
		t.Errorf("mean reward = %s, want %s", got, goldenTrainMeanReward)
	}
}
