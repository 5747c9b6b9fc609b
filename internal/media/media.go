package media

import (
	"fmt"
	"math"
	"math/rand"
)

// ChunkDuration is the playback length of every video chunk in seconds,
// reflecting the 1/1001 NTSC factor (2.002 s), as on Puffer.
const ChunkDuration = 2.002

// Rung is one entry of the encoding ladder: a fixed resolution and CRF whose
// output bitrate varies chunk-by-chunk (VBR).
type Rung struct {
	Name       string
	Width      int
	Height     int
	CRF        int
	AvgBitrate float64 // nominal mean bitrate, bits per second
	BaseSSIMdB float64 // SSIM (dB) on typical-complexity content
}

// DefaultLadder mirrors Puffer's ten H.264 encodings from 240p CRF 26
// (about 200 kbps) to 1080p CRF 20 (about 5,500 kbps). Base SSIM rises
// roughly logarithmically in bitrate, matching the diminishing returns in
// the paper's Figure 3b.
func DefaultLadder() []Rung {
	bitrates := []float64{200e3, 400e3, 700e3, 1100e3, 1600e3, 2300e3, 3000e3, 3800e3, 4600e3, 5500e3}
	names := []string{
		"240p60-crf26", "360p60-crf26", "480p60-crf24", "480p60-crf22",
		"720p60-crf24", "720p60-crf22", "720p60-crf20", "1080p60-crf24",
		"1080p60-crf22", "1080p60-crf20",
	}
	widths := []int{426, 640, 854, 854, 1280, 1280, 1280, 1920, 1920, 1920}
	heights := []int{240, 360, 480, 480, 720, 720, 720, 1080, 1080, 1080}
	crfs := []int{26, 26, 24, 22, 24, 22, 20, 24, 22, 20}
	ladder := make([]Rung, len(bitrates))
	lo, hi := bitrates[0], bitrates[len(bitrates)-1]
	for i, br := range bitrates {
		// 10.5 dB at the bottom rung up to 17.5 dB at the top,
		// logarithmic in bitrate.
		base := 10.5 + 7.0*math.Log(br/lo)/math.Log(hi/lo)
		ladder[i] = Rung{
			Name:       names[i],
			Width:      widths[i],
			Height:     heights[i],
			CRF:        crfs[i],
			AvgBitrate: br,
			BaseSSIMdB: base,
		}
	}
	return ladder
}

// Encoding is one encoded version of one chunk.
type Encoding struct {
	Size   float64 // compressed size, bytes
	SSIMdB float64 // quality vs. the canonical source, dB
}

// Bitrate returns the encoding's actual bitrate in bits per second.
func (e Encoding) Bitrate() float64 { return e.Size * 8 / ChunkDuration }

// Chunk is one 2.002-second segment with all ladder versions.
type Chunk struct {
	Index      int
	Complexity float64 // scene complexity that generated it (1.0 = typical)
	Versions   []Encoding
}

// Profile characterizes a channel's content dynamics.
type Profile struct {
	Name string
	// MeanLogComplexity shifts typical content difficulty (0 = typical).
	MeanLogComplexity float64
	// ARCoeff is the AR(1) coefficient of log-complexity between chunks
	// (close to 1 = slowly-varying scenes).
	ARCoeff float64
	// Volatility is the innovation std-dev of log-complexity.
	Volatility float64
	// SceneCutProb is the per-chunk probability of a hard cut that
	// resamples complexity from the stationary distribution.
	SceneCutProb float64
}

// Channels returns the six over-the-air channel profiles Puffer streams,
// spanning calm (news) to volatile (sports) content.
func Channels() []Profile {
	return []Profile{
		{Name: "nbc", MeanLogComplexity: 0.00, ARCoeff: 0.92, Volatility: 0.16, SceneCutProb: 0.03},
		{Name: "cbs", MeanLogComplexity: -0.05, ARCoeff: 0.93, Volatility: 0.14, SceneCutProb: 0.03},
		{Name: "abc", MeanLogComplexity: 0.05, ARCoeff: 0.90, Volatility: 0.18, SceneCutProb: 0.04},
		{Name: "fox-sports", MeanLogComplexity: 0.25, ARCoeff: 0.85, Volatility: 0.30, SceneCutProb: 0.08},
		{Name: "pbs", MeanLogComplexity: -0.20, ARCoeff: 0.95, Volatility: 0.10, SceneCutProb: 0.02},
		{Name: "univision", MeanLogComplexity: 0.10, ARCoeff: 0.90, Volatility: 0.20, SceneCutProb: 0.05},
	}
}

// sizeExponent couples chunk size to complexity: size grows sublinearly with
// scene complexity under CRF encoding.
const sizeExponent = 0.85

// ssimSlope is how many dB of SSIM one unit of log-complexity costs at a
// fixed CRF.
const ssimSlope = 2.2

// Source generates the chunk stream for one channel. It is deterministic
// given its seed. Not safe for concurrent use.
type Source struct {
	Ladder  []Rung
	Profile Profile

	rng    *rand.Rand
	logC   float64 // current log-complexity state
	index  int
	inited bool
}

// NewSource creates a chunk source for the given channel profile, ladder and
// seed. A nil ladder means DefaultLadder.
func NewSource(ladder []Rung, profile Profile, seed int64) *Source {
	if ladder == nil {
		ladder = DefaultLadder()
	}
	if len(ladder) == 0 {
		panic("media: empty encoding ladder")
	}
	return &Source{
		Ladder:  ladder,
		Profile: profile,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// stationaryStd is the stationary standard deviation of the AR(1)
// log-complexity process.
func (p Profile) stationaryStd() float64 {
	den := 1 - p.ARCoeff*p.ARCoeff
	if den <= 0 {
		return p.Volatility
	}
	return p.Volatility / math.Sqrt(den)
}

// Next encodes and returns the next chunk with all ladder versions.
func (s *Source) Next() Chunk {
	p := s.Profile
	if !s.inited {
		s.logC = p.MeanLogComplexity + s.rng.NormFloat64()*p.stationaryStd()
		s.inited = true
	} else if s.rng.Float64() < p.SceneCutProb {
		s.logC = p.MeanLogComplexity + s.rng.NormFloat64()*p.stationaryStd()
	} else {
		s.logC = p.MeanLogComplexity + p.ARCoeff*(s.logC-p.MeanLogComplexity) + p.Volatility*s.rng.NormFloat64()
	}
	complexity := math.Exp(s.logC)

	c := Chunk{
		Index:      s.index,
		Complexity: complexity,
		Versions:   make([]Encoding, len(s.Ladder)),
	}
	// One shared encoder-noise draw per chunk keeps versions correlated;
	// a small per-rung term adds encoder idiosyncrasy.
	sharedNoise := s.rng.NormFloat64()
	for i, r := range s.Ladder {
		sizeNoise := math.Exp(0.06*sharedNoise + 0.03*s.rng.NormFloat64())
		size := r.AvgBitrate / 8 * ChunkDuration * math.Pow(complexity, sizeExponent) * sizeNoise
		ssim := r.BaseSSIMdB - ssimSlope*s.logC + 0.15*s.rng.NormFloat64()
		if ssim < 1 {
			ssim = 1
		}
		c.Versions[i] = Encoding{Size: size, SSIMdB: ssim}
	}
	// Enforce the monotonicity ABR schemes rely on: within a chunk,
	// a higher rung is strictly larger and at least as good.
	for i := 1; i < len(c.Versions); i++ {
		if c.Versions[i].Size <= c.Versions[i-1].Size {
			c.Versions[i].Size = c.Versions[i-1].Size * 1.02
		}
		if c.Versions[i].SSIMdB < c.Versions[i-1].SSIMdB {
			c.Versions[i].SSIMdB = c.Versions[i-1].SSIMdB
		}
	}
	s.index++
	return c
}

// Take returns the next n chunks.
func (s *Source) Take(n int) []Chunk {
	out := make([]Chunk, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// Clip is a pre-generated fixed sequence of chunks that loops, like the
// "10-minute clip recorded on NBC" the paper replays in its emulation
// experiments.
type Clip struct {
	Chunks []Chunk
}

// RecordClip generates a clip of the given duration (seconds) from a channel
// profile. The clip is deterministic given the seed.
func RecordClip(profile Profile, duration float64, seed int64) *Clip {
	n := int(math.Ceil(duration / ChunkDuration))
	src := NewSource(nil, profile, seed)
	return &Clip{Chunks: src.Take(n)}
}

// At returns chunk i of the clip, looping past the end (re-playing the clip,
// as the emulation methodology does). The returned chunk's Index is i.
func (c *Clip) At(i int) Chunk {
	if len(c.Chunks) == 0 {
		panic("media: empty clip")
	}
	ch := c.Chunks[i%len(c.Chunks)]
	ch.Index = i
	return ch
}

// FindProfile returns the channel profile with the given name.
func FindProfile(name string) (Profile, error) {
	for _, p := range Channels() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("media: unknown channel %q", name)
}
