package experiment

import (
	"math/rand"

	"puffer/internal/media"
	"puffer/internal/netem"
	"puffer/internal/player"
)

// Env is the world a session runs in.
type Env struct {
	// Paths samples each session's network situation.
	Paths netem.Sampler
	// Channels are the available stations; each live stream picks one, so
	// an Env without a Clip needs at least one (DefaultEnv lists them all).
	Channels []media.Profile
	// Watch is the viewer-behavior model.
	Watch player.WatchModel
	// BufferCap is the client buffer in seconds (Puffer: 15).
	BufferCap float64
	// LookAhead is how many upcoming chunks the server knows (>= MPC
	// horizon).
	LookAhead int
	// MaxStall aborts a stream whose single stall exceeds this many
	// seconds (the viewer has certainly left).
	MaxStall float64
	// TraceDuration is how many seconds of capacity trace to synthesize
	// per session (traces wrap, so sessions may run longer).
	TraceDuration float64
	// BadDecoderProb is the tiny per-stream probability of the
	// slow-video-decoder exclusion seen in Figure A1.
	BadDecoderProb float64
	// Clip, when non-nil, replaces live channel sources with a looping
	// pre-recorded clip (the emulation methodology of §5.2).
	Clip *media.Clip
}

// DefaultEnv is the deployment environment: Puffer-like paths, six live
// channels, the default viewer model.
func DefaultEnv() Env {
	return Env{
		Paths:          netem.PufferPaths{},
		Channels:       media.Channels(),
		Watch:          player.DefaultWatchModel(),
		BufferCap:      player.DefaultBufferCap,
		LookAhead:      5,
		MaxStall:       30,
		TraceDuration:  900,
		BadDecoderProb: 5e-5,
	}
}

// EmulationEnv is the §5.2 testbed: FCC-like traces behind a fixed 40 ms
// shell, replaying a 10-minute NBC clip. Viewer behavior still applies so
// results are comparable per-stream.
func EmulationEnv() Env {
	e := DefaultEnv()
	e.Paths = netem.FCCPaths{}
	nbc, _ := media.FindProfile("nbc")
	e.Clip = media.RecordClip(nbc, 600, 600)
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
