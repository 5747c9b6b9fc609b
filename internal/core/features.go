package core

import (
	"fmt"
	"math"

	"puffer/internal/abr"
	"puffer/internal/nn"
	"puffer/internal/tcpsim"
)

// Normalization constants for feature assembly. Inputs are scaled to be
// roughly order-1 so a single learning rate works across features.
const (
	sizeScale  = 1e6   // bytes -> MB
	timeScale  = 1.0   // seconds
	cwndScale  = 100.0 // packets
	rttScale   = 0.1   // seconds -> 100 ms units
	delivScale = 1e7   // bits/s -> 10 Mbit/s units
)

// numTCPFeatures counts the tcp_info fields fed to the TTP: cwnd, in-flight,
// min RTT, smoothed RTT, delivery rate — the fields the paper names.
const numTCPFeatures = 5

// FeatureConfig selects which inputs a predictor sees. The zero value is
// not useful; use DefaultFeatures.
type FeatureConfig struct {
	// HistLen is how many past chunks to include (paper: t = 8).
	HistLen int
	// UseTCPInfo includes the tcp_info snapshot (ablated in Figure 7).
	UseTCPInfo bool
	// UseProposedSize includes the candidate chunk's size; disabling it
	// yields the "throughput predictor" ablation, which predicts a rate
	// independent of what is being sent.
	UseProposedSize bool
}

// DefaultFeatures is the full Fugu input: 8 chunks of history, tcp_info, and
// the proposed size — 22 inputs.
func DefaultFeatures() FeatureConfig {
	return FeatureConfig{HistLen: 8, UseTCPInfo: true, UseProposedSize: true}
}

// Validate rejects a layout no predictor serves: a decoded model's config
// is whatever its bytes held, and HistLen sizes every feature row, so it
// must lie in [0, abr.HistoryLen]. The error wraps nn.ErrBadModel.
func (c FeatureConfig) Validate() error {
	if c.HistLen < 0 || c.HistLen > abr.HistoryLen {
		return fmt.Errorf("core: %w: history length %d outside [0, %d]", nn.ErrBadModel, c.HistLen, abr.HistoryLen)
	}
	return nil
}

// Dim returns the input vector length.
func (c FeatureConfig) Dim() int {
	d := 2 * c.HistLen
	if c.UseTCPInfo {
		d += numTCPFeatures
	}
	if c.UseProposedSize {
		d++
	}
	return d
}

// Assemble writes the feature vector into dst (length Dim). hist is
// oldest-first; shorter histories are left-padded with zeros, as at stream
// start.
func (c FeatureConfig) Assemble(dst []float64, hist []abr.ChunkRecord, info tcpsim.Info, proposedSize float64) {
	if len(dst) != c.Dim() {
		panic("core: feature buffer has wrong length")
	}
	for i := range dst {
		dst[i] = 0
	}
	// Past chunk sizes and transmission times, newest in the last slot.
	n := len(hist)
	if n > c.HistLen {
		hist = hist[n-c.HistLen:]
		n = c.HistLen
	}
	off := c.HistLen - n
	for i, r := range hist {
		dst[off+i] = clip(r.Size/sizeScale, 1e3)
		dst[c.HistLen+off+i] = clip(r.TransTime/timeScale, 20)
	}
	k := 2 * c.HistLen
	if c.UseTCPInfo {
		dst[k+0] = clip(info.CWND/cwndScale, 1e3)
		dst[k+1] = clip(info.InFlight/cwndScale, 1e3)
		dst[k+2] = clip(info.MinRTT/rttScale, 1e2)
		dst[k+3] = clip(info.RTT/rttScale, 1e2)
		dst[k+4] = clip(info.DeliveryRate/delivScale, 1e3)
		k += numTCPFeatures
	}
	if c.UseProposedSize {
		dst[k] = clip(proposedSize/sizeScale, 1e3)
	}
}

// AssembleBatch writes one feature row per proposed size into dst (row-major,
// len(sizes) × Dim rows). All rows share the same history and tcp_info — on
// the MPC hot path the candidate sizes of one horizon step differ only in the
// proposed-size feature — so the shared prefix is assembled once and copied,
// and only the last feature is patched per row.
func (c FeatureConfig) AssembleBatch(dst []float64, hist []abr.ChunkRecord, info tcpsim.Info, sizes []float64) {
	dim := c.Dim()
	if len(dst) != len(sizes)*dim {
		panic("core: batch feature buffer has wrong length")
	}
	if len(sizes) == 0 {
		return
	}
	row0 := dst[:dim]
	c.Assemble(row0, hist, info, sizes[0])
	for r := 1; r < len(sizes); r++ {
		row := dst[r*dim : (r+1)*dim]
		copy(row, row0)
		if c.UseProposedSize {
			row[dim-1] = clip(sizes[r]/sizeScale, 1e3)
		}
	}
}

// clip bounds a scaled feature to [0, hi]. Its own comparisons, not the
// builtin max and min: max(-0, 0) is +0, where clip keeps a -0 feature.
func clip(v, hi float64) float64 {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// Throughput bins for the "throughput predictor" ablation: 21 log-spaced
// rates from ~0.15 Mbit/s to ~250 Mbit/s.
const (
	tputBinBase  = 0.15e6
	tputBinRatio = 1.45
)

// ThroughputBinIndex maps a throughput (bits/s) to its bin.
func ThroughputBinIndex(tput float64) int {
	if tput <= tputBinBase {
		return 0
	}
	i := int(math.Log(tput/tputBinBase)/math.Log(tputBinRatio) + 0.5)
	if i >= abr.NumBins {
		return abr.NumBins - 1
	}
	if i < 0 {
		return 0
	}
	return i
}

// ThroughputBinValue returns the representative rate of a bin (bits/s).
func ThroughputBinValue(i int) float64 {
	return tputBinBase * math.Pow(tputBinRatio, float64(i))
}
