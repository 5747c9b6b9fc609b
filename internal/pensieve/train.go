package pensieve

import (
	"math"
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/netem"
	"puffer/internal/nn"
	"puffer/internal/player"
	"puffer/internal/tcpsim"
)

// TrainConfig controls RL training.
type TrainConfig struct {
	Episodes    int // training episodes (each one simulated stream)
	ChunksPerEp int // chunks per episode (paper: long-running videos)
	Seed        int64
	// Paths is the training trace family (the emulation methodology uses
	// FCC-like paths).
	Paths netem.Sampler
}

// DefaultTrainConfig mirrors the tuned multi-video training the paper
// deployed. Its paths are FCC-like with an 8 Mbit/s ceiling: the
// FCC/Norway traces Pensieve trained on rarely exceed a few Mbit/s, so its
// policy never learns what to do with a fat pipe.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Episodes: 2500, ChunksPerEp: 150, Paths: netem.FCCPaths{MaxRate: 8e6}}
}

const (
	// gamma is the return discount factor.
	gamma = 0.95
	// learningRate is the policy's Adam learning rate.
	learningRate = 1e-3
)

// The entropy bonus anneals linearly from entropyStart at episode 0 to
// entropyEnd, per the Pensieve authors' advice. Vars, not constants, so
// entropyEnd-entropyStart is the run-time float64 subtraction: a constant
// expression would fold exactly and round to a different value.
var entropyStart, entropyEnd = 0.25, 0.01

// trainClip is the training video: a fixed 10-minute NBC-like clip,
// mirroring the paper's emulation setup.
func trainClip() *media.Clip {
	nbc, _ := media.FindProfile("nbc")
	return media.RecordClip(nbc, 600, 600)
}

// TrainResult reports training diagnostics.
type TrainResult struct {
	// MeanReward is the (undiscounted) per-chunk mean reward of the final
	// tenth of training episodes.
	MeanReward float64
}

// Train trains a Pensieve policy in the chunk-level emulation simulator and
// returns a deployable Agent. cfg is used as given: start from
// DefaultTrainConfig.
func Train(cfg TrainConfig) (*Agent, TrainResult) {
	clip := trainClip()

	rng := rand.New(rand.NewSource(cfg.Seed))
	policy := NewUntrainedPolicy(rng)
	polTr := nn.NewTrainer(policy, &nn.Adam{LR: learningRate})

	rollWS := policy.NewBatchWorkspace(1)
	probs := make([]float64, NumActions)

	// Per-position return baseline (EMA across episodes). A learned value
	// net cannot express position-dependent returns here because the
	// live-stream state carries no horizon countdown; the positional
	// baseline removes that bias exactly.
	baseline := make([]float64, cfg.ChunksPerEp)
	baseSeen := make([]bool, cfg.ChunksPerEp)

	states := make([][]float64, 0, cfg.ChunksPerEp)
	actions := make([]int, 0, cfg.ChunksPerEp)
	rewards := make([]float64, 0, cfg.ChunksPerEp)

	var tailReward float64
	var tailChunks int
	tailStart := cfg.Episodes * 9 / 10

	for ep := 0; ep < cfg.Episodes; ep++ {
		states, actions, rewards = states[:0], actions[:0], rewards[:0]
		frac := float64(ep) / float64(cfg.Episodes)
		entropy := entropyStart + (entropyEnd-entropyStart)*frac

		// The policy is constant within an episode (the optimizer steps
		// between episodes and drops the snapshot), so a rollout runs on
		// one packed snapshot.
		runEpisode(cfg, clip, rng, func(obs *abr.Observation) int {
			s := make([]float64, StateDim)
			assembleState(s, obs)
			nn.Softmax(probs, policy.Packed().ForwardBatchInto(rollWS, s, 1))
			a := sample(rng, probs)
			states = append(states, s)
			actions = append(actions, a)
			return a
		}, func(r float64) {
			rewards = append(rewards, r)
		})

		if len(states) == 0 {
			continue
		}
		// Discounted returns and value-baseline advantages.
		returns := make([]float64, len(rewards))
		acc := 0.0
		for i := len(rewards) - 1; i >= 0; i-- {
			acc = rewards[i] + gamma*acc
			returns[i] = acc
		}
		advantages := make([]float64, len(returns))
		for i, r := range returns {
			if !baseSeen[i] {
				baseline[i] = r
				baseSeen[i] = true
			}
			advantages[i] = r - baseline[i]
			baseline[i] = 0.9*baseline[i] + 0.1*r
		}
		standardize(advantages)
		polTr.PolicyGradStep(states, actions, advantages, entropy)

		if ep >= tailStart {
			for _, r := range rewards {
				tailReward += r
			}
			tailChunks += len(rewards)
		}
	}

	var res TrainResult
	if tailChunks > 0 {
		res.MeanReward = tailReward / float64(tailChunks)
	}
	return NewAgent(policy), res
}

// runEpisode simulates one training stream chunk-by-chunk, calling choose
// for each decision and reward with each chunk's QoE.
func runEpisode(cfg TrainConfig, src *media.Clip, rng *rand.Rand, choose func(*abr.Observation) int, reward func(float64)) {
	path := cfg.Paths.Sample(rng, 700)
	conn := tcpsim.Dial(path, rng)
	buf := &player.Buffer{}
	at := rng.Intn(len(src.Chunks))

	horizon := make([]media.Chunk, 5)
	for i := range horizon {
		horizon[i] = src.At(at + i)
	}
	history := make([]abr.ChunkRecord, 0, HistLen)
	lastQuality := -1
	lastBitrate := -1.0

	for chunk := 0; chunk < cfg.ChunksPerEp; chunk++ {
		obs := abr.Observation{
			ChunkIndex:  chunk,
			Buffer:      buf.Level(),
			LastQuality: lastQuality,
			History:     history,
			TCP:         conn.Info(),
			Horizon:     horizon,
		}
		q := choose(&obs)
		enc := horizon[0].Versions[q]
		elapsed, completed := conn.TransferUpTo(enc.Size, 60)
		if !completed {
			// A hopeless transfer: huge penalty and end the episode
			// (the RL env's terminal condition).
			reward(chunkReward(enc, lastBitrate, 60))
			return
		}
		stall := buf.CompleteChunk(elapsed, media.ChunkDuration)
		if !buf.Playing() {
			buf.StartPlayback(elapsed)
		}
		reward(chunkReward(enc, lastBitrate, stall))

		history = append(history, abr.ChunkRecord{Size: enc.Size, TransTime: elapsed})
		if len(history) > HistLen {
			history = history[1:]
		}
		lastQuality = q
		lastBitrate = enc.Bitrate()
		at++
		for i := range horizon {
			horizon[i] = src.At(at + i)
		}
		if wait := buf.RoomWait(media.ChunkDuration); wait > 0 {
			conn.Wait(wait)
			buf.Drain(wait)
		}
	}
}

// standardize rescales advantages to zero mean and unit variance within an
// episode, taming REINFORCE's variance when the value baseline lags the
// return scale.
func standardize(xs []float64) {
	if len(xs) < 2 {
		return
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var variance float64
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	if variance < 1e-12 {
		return
	}
	inv := 1 / sqrt(variance)
	for i := range xs {
		xs[i] = (xs[i] - mean) * inv
	}
}

func sqrt(x float64) float64 { return math.Sqrt(x) }

// sample draws an index from a probability distribution.
func sample(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}
