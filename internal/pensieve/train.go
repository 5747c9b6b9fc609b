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
	Episodes     int     // training episodes (each one simulated stream)
	ChunksPerEp  int     // chunks per episode (paper: long-running videos)
	LR           float64 // Adam learning rate for both nets
	Gamma        float64 // discount factor
	EntropyStart float64 // entropy bonus at episode 0...
	EntropyEnd   float64 // ...annealed linearly to this
	Seed         int64
	QoE          QoEWeights
	// Paths is the training trace family (the emulation methodology uses
	// FCC-like paths). Nil means netem.FCCPaths{}.
	Paths netem.Sampler
	// Clip is the training video (nil = a fixed 10-minute NBC-like clip,
	// mirroring the paper's emulation setup).
	Clip *media.Clip
}

// DefaultTrainConfig mirrors the tuned multi-video training the paper
// deployed (entropy annealing per the Pensieve authors' advice).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Episodes:     2500,
		ChunksPerEp:  150,
		LR:           1e-3,
		Gamma:        0.95,
		EntropyStart: 0.25,
		EntropyEnd:   0.01,
		QoE:          DefaultQoE(),
	}
}

// TrainResult reports training diagnostics.
type TrainResult struct {
	// MeanReward is the (undiscounted) per-chunk mean reward of the final
	// tenth of training episodes.
	MeanReward float64
	Episodes   int
}

// Train trains a Pensieve policy in the chunk-level emulation simulator and
// returns a deployable Agent.
func Train(cfg TrainConfig) (*Agent, TrainResult) {
	if cfg.Episodes <= 0 {
		cfg.Episodes = 800
	}
	if cfg.ChunksPerEp <= 0 {
		cfg.ChunksPerEp = 150
	}
	if cfg.LR <= 0 {
		cfg.LR = 2.5e-4
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = 0.99
	}
	if cfg.Paths == nil {
		// The FCC/Norway traces Pensieve trained on rarely exceed a few
		// Mbit/s; its policy never learns what to do with a fat pipe.
		cfg.Paths = netem.FCCPaths{MaxRate: 8e6}
	}
	if cfg.Clip == nil {
		nbc, _ := media.FindProfile("nbc")
		cfg.Clip = media.RecordClip(nbc, 600, 600)
	}
	if cfg.QoE.RebufPenalty == 0 {
		cfg.QoE = DefaultQoE()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	policy := NewUntrainedPolicy(rng)
	polTr := nn.NewTrainer(policy, &nn.Adam{LR: cfg.LR})

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
		entropy := cfg.EntropyStart + (cfg.EntropyEnd-cfg.EntropyStart)*frac

		// The policy is constant within an episode (the optimizer steps
		// between episodes and drops the snapshot), so a rollout runs on
		// one packed snapshot.
		runEpisode(cfg, rng, func(obs *abr.Observation) int {
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
			acc = rewards[i] + cfg.Gamma*acc
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

	res := TrainResult{Episodes: cfg.Episodes}
	if tailChunks > 0 {
		res.MeanReward = tailReward / float64(tailChunks)
	}
	return NewAgent(policy), res
}

// runEpisode simulates one training stream chunk-by-chunk, calling choose
// for each decision and reward with each chunk's QoE.
func runEpisode(cfg TrainConfig, rng *rand.Rand, choose func(*abr.Observation) int, reward func(float64)) {
	path := cfg.Paths.Sample(rng, 700)
	conn := tcpsim.Dial(path, rng, 0)
	buf := &player.Buffer{Cap: player.DefaultBufferCap}
	src := cfg.Clip
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
			BufferCap:   buf.Cap,
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
			reward(cfg.QoE.Reward(enc, lastBitrate, 60))
			return
		}
		stall := buf.CompleteChunk(elapsed, media.ChunkDuration)
		if !buf.Playing() {
			buf.StartPlayback(elapsed)
		}
		reward(cfg.QoE.Reward(enc, lastBitrate, stall))

		history = append(history, abr.ChunkRecord{Size: enc.Size, TransTime: elapsed, Quality: q})
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
