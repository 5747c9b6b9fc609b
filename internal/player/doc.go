// Package player models the client side of a Puffer stream: the playback
// buffer with stall accounting, and the viewer-behavior model (how long
// people intend to watch, and how stalls and picture quality drive
// abandonment). The paper's headline statistics — stall ratio, startup
// delay, watch time, and the Figure 10 time-on-site tail — are all produced
// by this machinery; the quality-coupled hazard is also what couples QoE to
// session duration, the effect §5.4 measures.
//
// Main entry points:
//
//   - Buffer: playback-buffer state for one stream (Level, Playing,
//     StartPlayback, CompleteChunk with stall accounting, Drain, RoomWait),
//     every chunk one media.ChunkDuration long and the level capped at
//     BufferCap, Puffer's 15-second client maximum.
//   - The viewer model, fixed package constants: IntendedDuration
//     (heavy-tailed watch intents), StartupPatience, AbandonOnStall, and
//     the per-chunk LeaveAfterChunk hazard that quality modulates.
package player
