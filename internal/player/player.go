package player

import (
	"math"
	"math/rand"
)

// DefaultBufferCap is Puffer's 15-second maximum client buffer.
const DefaultBufferCap = 15.0

// Buffer tracks playback-buffer state for one stream.
type Buffer struct {
	// Cap is the maximum buffered video in seconds.
	Cap float64

	level   float64
	playing bool

	// Startup is the startup delay in seconds (time from stream start to
	// first frame), set when playback begins.
	Startup float64
	// Stalled is the cumulative rebuffering time in seconds, excluding
	// startup.
	Stalled float64
	// Stalls counts distinct stall events.
	Stalls int
	// Played is the cumulative video time actually played, seconds.
	Played float64
}

// Level returns the current buffered video in seconds.
func (b *Buffer) Level() float64 { return b.level }

// Playing reports whether playback has started.
func (b *Buffer) Playing() bool { return b.playing }

// CompleteChunk accounts for a chunk that took transTime seconds to arrive
// and adds chunkDur seconds of video. It returns the stall time incurred
// (zero before playback starts — that time is startup delay, not stalling).
//
// Invariants: level stays within [0, Cap]; stall is charged only when the
// transfer outlasted the buffer during playback.
func (b *Buffer) CompleteChunk(transTime, chunkDur float64) (stall float64) {
	if transTime < 0 {
		transTime = 0
	}
	if b.playing {
		if transTime > b.level {
			stall = transTime - b.level
			b.Stalled += stall
			b.Stalls++
			b.Played += b.level
			b.level = 0
		} else {
			b.level -= transTime
			b.Played += transTime
		}
	}
	b.level += chunkDur
	if b.level > b.Cap {
		b.level = b.Cap
	}
	return stall
}

// StartPlayback marks playback begun after the given startup delay.
func (b *Buffer) StartPlayback(startupDelay float64) {
	b.playing = true
	b.Startup = startupDelay
}

// RoomWait returns how long the server must wait before sending the next
// chunk of duration chunkDur so the client has room, given that the buffer
// drains at 1 s/s during playback. Zero if there is already room.
func (b *Buffer) RoomWait(chunkDur float64) float64 {
	if !b.playing {
		return 0
	}
	excess := b.level + chunkDur - b.Cap
	if excess <= 0 {
		return 0
	}
	return excess
}

// Drain plays dt seconds of buffered video (used while the server waits for
// room). The buffer never goes negative: draining more than the level plays
// out the remainder and would stall, but callers only Drain by RoomWait
// amounts, which cannot exceed the level.
func (b *Buffer) Drain(dt float64) {
	if !b.playing || dt <= 0 {
		return
	}
	if dt > b.level {
		dt = b.level
	}
	b.level -= dt
	b.Played += dt
}

// WatchModel generates viewer behavior. All probabilities are per event; the
// model couples abandonment to QoE so that schemes delivering fewer stalls
// and higher SSIM retain viewers longer — the mechanism behind the paper's
// Figure 10 observation.
type WatchModel struct {
	// MedianMinutes is the median intended watch duration.
	MedianMinutes float64
	// Sigma is the lognormal shape of intended duration (heavy-tailed).
	Sigma float64
	// StartupPatienceMean: a viewer abandons before playback if startup
	// exceeds an Exp draw with this mean (seconds).
	StartupPatienceMean float64
	// StallTolerance scales stall-driven abandonment: on each stall of s
	// seconds, P(abandon) = 1 - exp(-s/StallTolerance).
	StallTolerance float64
	// LeaveHazardPerChunk is the baseline probability of drifting away
	// after any chunk.
	LeaveHazardPerChunk float64
	// QualityRefSSIM and QualitySlope shape the quality coupling: the
	// per-chunk leave hazard is multiplied by
	// exp(QualitySlope * (QualityRefSSIM - ssim)).
	QualityRefSSIM float64
	QualitySlope   float64
}

// DefaultWatchModel returns the study's viewer model, scaled so a typical
// stream lasts a few minutes of simulated time (the paper's absolute
// durations are ~6x longer; shapes are preserved).
func DefaultWatchModel() WatchModel {
	return WatchModel{
		MedianMinutes:       2.0,
		Sigma:               1.3,
		StartupPatienceMean: 12.0,
		StallTolerance:      25.0,
		LeaveHazardPerChunk: 0.0015,
		QualityRefSSIM:      16.5,
		QualitySlope:        0.20,
	}
}

// IntendedDuration draws how long the viewer would watch with perfect QoE,
// in seconds. Lognormal: heavy-tailed, like the paper's skewed watch times.
func (m WatchModel) IntendedDuration(rng *rand.Rand) float64 {
	d := m.MedianMinutes * 60 * math.Exp(m.Sigma*rng.NormFloat64())
	if d < 1 {
		d = 1
	}
	return d
}

// StartupPatience draws the startup-delay tolerance in seconds.
func (m WatchModel) StartupPatience(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * m.StartupPatienceMean
}

// AbandonOnStall reports whether a stall of the given length makes the
// viewer leave.
func (m WatchModel) AbandonOnStall(rng *rand.Rand, stall float64) bool {
	if stall <= 0 {
		return false
	}
	return rng.Float64() < 1-math.Exp(-stall/m.StallTolerance)
}

// LeaveAfterChunk reports whether the viewer drifts away after a chunk of
// the given SSIM (dB). Better quality means a lower hazard.
func (m WatchModel) LeaveAfterChunk(rng *rand.Rand, ssim float64) bool {
	h := m.LeaveHazardPerChunk * math.Exp(m.QualitySlope*(m.QualityRefSSIM-ssim))
	if h > 1 {
		h = 1
	}
	return rng.Float64() < h
}
