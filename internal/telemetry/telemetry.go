package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// StreamSummary is the per-stream digest used in every analysis.
type StreamSummary struct {
	SessionID int
	StreamID  int
	Scheme    string

	// PathMeanRate is the session's mean TCP delivery rate (bits/s);
	// the paper's "slow path" cut is PathMeanRate < 6 Mbit/s.
	PathMeanRate float64

	StartupDelay float64 // seconds; 0 if never played
	PlayTime     float64 // seconds of video actually played
	StallTime    float64 // seconds stalled (excludes startup)
	Chunks       int

	SSIMMean       float64 // mean SSIM (dB) over played chunks
	SSIMVar        float64 // mean |ΔSSIM| (dB) between consecutive chunks
	MeanBitrate    float64 // bits/s of delivered video
	FirstChunkSSIM float64

	NeverPlayed bool // excluded: stream never began playing
	BadDecoder  bool // excluded: client-side decoder too slow
}

// WatchTime is the stream's total watch time: played plus stalled time,
// the denominator convention for time spent stalled.
func (s StreamSummary) WatchTime() float64 { return s.PlayTime + s.StallTime }

// StallRatio is the stream's own stall fraction; aggregate analyses use
// total-stall/total-watch across streams instead (see the stats package).
func (s StreamSummary) StallRatio() float64 {
	w := s.WatchTime()
	if w <= 0 {
		return 0
	}
	return s.StallTime / w
}

// Eligible reports whether the stream enters the primary analysis: it began
// playing, watched at least 4 seconds, and did not hit the slow-decoder
// exclusion — the CONSORT criteria of Figure A1.
func (s StreamSummary) Eligible() bool {
	return !s.NeverPlayed && !s.BadDecoder && s.WatchTime() >= 4
}

// SlowPath reports whether the stream sits on a "slow" network path, the
// paper's < 6 Mbit/s mean delivery-rate cut used in Figure 8.
func (s StreamSummary) SlowPath() bool { return s.PathMeanRate < 6e6 }

// SummaryBuilder incrementally computes a StreamSummary from per-chunk
// events, so the streamer does not retain per-chunk slices.
type SummaryBuilder struct {
	s         StreamSummary
	prevSSIM  float64
	havePrev  bool
	ssimSum   float64
	deltaSum  float64
	deltas    int
	byteSum   float64
	rateSum   float64
	rateCount int
}

// NewSummaryBuilder starts a summary for one stream.
func NewSummaryBuilder(sessionID, streamID int, scheme string) *SummaryBuilder {
	return &SummaryBuilder{s: StreamSummary{SessionID: sessionID, StreamID: streamID, Scheme: scheme}}
}

// Chunk records one delivered chunk.
func (b *SummaryBuilder) Chunk(ssim float64, sizeBytes float64, deliveryRate float64) {
	if b.s.Chunks == 0 {
		b.s.FirstChunkSSIM = ssim
	}
	b.s.Chunks++
	b.ssimSum += ssim
	b.byteSum += sizeBytes
	if b.havePrev {
		d := ssim - b.prevSSIM
		if d < 0 {
			d = -d
		}
		b.deltaSum += d
		b.deltas++
	}
	b.prevSSIM = ssim
	b.havePrev = true
	if deliveryRate > 0 {
		b.rateSum += deliveryRate
		b.rateCount++
	}
}

// Finish completes the summary with playback totals.
func (b *SummaryBuilder) Finish(startup, playTime, stallTime float64, neverPlayed, badDecoder bool) StreamSummary {
	s := b.s
	s.StartupDelay = startup
	s.PlayTime = playTime
	s.StallTime = stallTime
	s.NeverPlayed = neverPlayed
	s.BadDecoder = badDecoder
	if s.Chunks > 0 {
		s.SSIMMean = b.ssimSum / float64(s.Chunks)
	}
	if b.deltas > 0 {
		s.SSIMVar = b.deltaSum / float64(b.deltas)
	}
	if playTime > 0 {
		s.MeanBitrate = b.byteSum * 8 / (float64(s.Chunks) * chunkDurApprox)
	}
	if b.rateCount > 0 {
		s.PathMeanRate = b.rateSum / float64(b.rateCount)
	}
	return s
}

// chunkDurApprox converts chunk counts to seconds for bitrate accounting.
const chunkDurApprox = 2.002

// WriteSummariesCSV writes stream summaries with a header row.
func WriteSummariesCSV(w io.Writer, sums []StreamSummary) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "session_id,stream_id,scheme,path_mean_rate_bps,startup_s,play_s,stall_s,chunks,ssim_mean_db,ssim_var_db,mean_bitrate_bps,first_chunk_ssim_db,never_played,bad_decoder"); err != nil {
		return err
	}
	for _, s := range sums {
		if _, err := fmt.Fprintf(bw, "%d,%d,%s,%.0f,%.3f,%.3f,%.3f,%d,%.4f,%.4f,%.0f,%.4f,%t,%t\n",
			s.SessionID, s.StreamID, s.Scheme, s.PathMeanRate, s.StartupDelay, s.PlayTime, s.StallTime,
			s.Chunks, s.SSIMMean, s.SSIMVar, s.MeanBitrate, s.FirstChunkSSIM, s.NeverPlayed, s.BadDecoder); err != nil {
			return err
		}
	}
	return bw.Flush()
}
