package experiment

import (
	"math/rand"

	"puffer/internal/media"
	"puffer/internal/netem"
)

// Env is the world a session runs in: what varies between experiments.
// The rest of the world is fixed, as on Puffer: the 15-second client buffer
// (player.BufferCap), the viewer model (player's IntendedDuration,
// StartupPatience, AbandonOnStall and LeaveAfterChunk), netem's 900-second
// session trace (netem.SampleForDay), and this package's lookAhead,
// maxStall and badDecoderProb.
type Env struct {
	// Paths samples each session's network situation.
	Paths netem.Sampler
	// Channels are the available stations; each live stream picks one, so
	// an Env without a Clip needs at least one (DefaultEnv lists them all).
	Channels []media.Profile
	// Clip, when non-nil, replaces live channel sources with a looping
	// pre-recorded clip (the emulation methodology of §5.2).
	Clip *media.Clip
}

const (
	// lookAhead is how many upcoming chunks the server knows (>= the MPC
	// horizon).
	lookAhead = 5
	// maxStall aborts a stream whose single stall exceeds this many
	// seconds (the viewer has certainly left).
	maxStall = 30
	// badDecoderProb is the tiny per-stream probability of the
	// slow-video-decoder exclusion seen in Figure A1.
	badDecoderProb = 5e-5
)

// DefaultEnv is the deployment environment: Puffer-like paths and six live
// channels.
func DefaultEnv() Env {
	return Env{
		Paths:    netem.PufferPaths{MedianRate: 12e6, Sigma: 1.1},
		Channels: media.Channels(),
	}
}

// EmulationEnv is the §5.2 testbed: FCC-like traces behind a fixed 40 ms
// shell, replaying a 10-minute NBC clip. Viewer behavior still applies so
// results are comparable per-stream.
func EmulationEnv() Env {
	e := DefaultEnv()
	e.Paths = netem.FCCPaths{MaxRate: 16e6}
	e.Clip = media.EmulationClip()
	return e
}

// chunkSource abstracts live sources and looping clips.
type chunkSource interface {
	Next() media.Chunk
}

// clipSource adapts a media.Clip to the chunkSource interface.
type clipSource struct {
	clip *media.Clip
	at   int
}

func (c *clipSource) Next() media.Chunk {
	ch := c.clip.At(c.at)
	c.at++
	return ch
}

// newSource builds the chunk source for one stream.
func (e *Env) newSource(rng *rand.Rand) chunkSource {
	if e.Clip != nil {
		// Start at a random offset so concurrent streams are not in
		// lockstep.
		return &clipSource{clip: e.Clip, at: rng.Intn(len(e.Clip.Chunks))}
	}
	return media.NewSource(e.Channels[rng.Intn(len(e.Channels))], rng.Int63())
}
