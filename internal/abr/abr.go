package abr

import (
	"math"

	"puffer/internal/media"
	"puffer/internal/tcpsim"
)

// HistoryLen is how many past chunks of context an Observation carries,
// matching the TTP's t = 8.
const HistoryLen = 8

// ChunkRecord summarizes one previously-sent chunk.
type ChunkRecord struct {
	Size      float64 // bytes
	TransTime float64 // seconds from send decision to last byte
}

// Throughput returns the chunk's achieved throughput in bits/s.
func (r ChunkRecord) Throughput() float64 {
	if r.TransTime <= 0 {
		return 0
	}
	return r.Size * 8 / r.TransTime
}

// Observation is everything the server knows when choosing the next chunk's
// quality. The ABR scheme runs server-side, as on Puffer.
type Observation struct {
	ChunkIndex int
	// Buffer is the client's playback buffer in seconds, at most
	// player.BufferCap.
	Buffer float64
	// LastQuality is the rung of the previous chunk, or -1 at stream
	// start.
	LastQuality int
	// LastSSIM is the SSIM (dB) of the previous chunk; meaningful only
	// when LastQuality >= 0.
	LastSSIM float64
	// History holds up to HistoryLen past chunks, oldest first.
	History []ChunkRecord
	// TCP is the sender-side tcp_info snapshot at decision time.
	TCP tcpsim.Info
	// Horizon holds the upcoming chunks (the one being decided first).
	// Live encoding runs ahead of the playhead, so sizes and SSIMs of
	// the next few chunks are known exactly.
	Horizon []media.Chunk
}

// Algorithm selects the encoded version of each chunk. Implementations keep
// per-stream state and are not safe for concurrent use; the experiment
// harness creates one instance per concurrent stream.
type Algorithm interface {
	// Name identifies the scheme in results tables.
	Name() string
	// Choose returns the ladder rung to send for obs.Horizon[0].
	Choose(obs *Observation) int
	// Reset clears per-stream state at the start of a new stream.
	Reset()
}

// DeferredAlgorithm is implemented by algorithms whose decision can be
// split around an external inference phase: PrepareChoose stages all of the
// decision's prediction work (a deferring predictor records feature rows
// instead of running its network), an external service may then execute the
// staged work — batched across many concurrent sessions — and FinishChoose
// completes the decision from the filled distributions. For any state,
// PrepareChoose(obs) followed by FinishChoose(obs) must return exactly what
// Choose(obs) would have, including identical RNG draw sequences.
type DeferredAlgorithm interface {
	Algorithm
	// PrepareChoose stages the decision for obs.
	PrepareChoose(obs *Observation)
	// FinishChoose completes the decision staged by the immediately
	// preceding PrepareChoose with the same obs.
	FinishChoose(obs *Observation) int
}

// The coefficients of the paper's Equation 1:
// QoE = SSIM - λ·|ΔSSIM| - µ·stall.
const (
	qoeLambda = 1.0   // quality-variation weight λ
	qoeMu     = 100.0 // stall weight µ per second
)

// ChunkQoE scores one chunk by Equation 1: ssim and prevSSIM in dB, stall in
// seconds. Pass hasPrev=false for the first chunk of a stream (no variation
// term).
func ChunkQoE(ssim, prevSSIM, stall float64, hasPrev bool) float64 {
	q := ssim - qoeMu*stall
	if hasPrev {
		q -= qoeLambda * math.Abs(ssim-prevSSIM)
	}
	return q
}

// Transmission-time discretization, exactly as the paper's §4.5: 21 bins,
// [0, 0.25), [0.25, 0.75), ..., [9.75, ∞), i.e. 0.5-second bins except the
// first and last.
const NumBins = 21

// BinIndex maps a transmission time (seconds) to its bin. Both ends are
// settled by comparison, before any conversion to int, so that +Inf (a size
// over a vanishing throughput estimate) lands in the last bin and NaN in the
// first instead of indexing out of range.
func BinIndex(t float64) int {
	if !(t >= 0.25) {
		return 0
	}
	if t >= 9.75 {
		return NumBins - 1
	}
	return 1 + int((t-0.25)/0.5)
}

// BinValue returns the representative transmission time of a bin: the bin
// center, 0.125 s for the first bin, and 14 s for the unbounded last bin.
// The tail representative deliberately exceeds the 15-second client buffer:
// an outcome in [9.75, ∞) on a heavy-tailed path is usually an outage, and
// the controller must see stall risk in it even from a full buffer.
func BinValue(i int) float64 {
	switch {
	case i <= 0:
		return 0.125
	case i >= NumBins-1:
		return 14.0
	default:
		return 0.5 * float64(i)
	}
}

// CatalogEntry describes a scheme for the paper's Figure 5 table.
type CatalogEntry struct {
	Name       string
	Control    string
	Predictor  string
	Objective  string
	HowTrained string
}

// Catalog returns the paper's Figure 5: the distinguishing features of every
// algorithm in the experiments.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{"BBA", "classical (prop. control)", "n/a", "+SSIM s.t. bitrate < limit", "n/a"},
		{"MPC-HM", "classical (MPC)", "classical (HM)", "+SSIM, -stalls, -dSSIM", "n/a"},
		{"RobustMPC-HM", "classical (robust MPC)", "classical (HM)", "+SSIM, -stalls, -dSSIM", "n/a"},
		{"Pensieve", "learned (DNN)", "n/a", "+bitrate, -stalls, -dbitrate", "reinforcement learning in simulation"},
		{"Emulation-trained Fugu", "classical (MPC)", "learned (DNN)", "+SSIM, -stalls, -dSSIM", "supervised learning in emulation"},
		{"Fugu", "classical (MPC)", "learned (DNN)", "+SSIM, -stalls, -dSSIM", "supervised learning in situ"},
	}
}
