// Package media models Puffer's video back-end (§2.1): a live source
// de-interlaced into 2.002-second chunks, encoded into a ten-rung H.264
// ladder (about 200 kbps at 240p up to about 5,500 kbps at 1080p), with
// per-chunk SSIM computed against the canonical source.
//
// Real encoders produce chunks whose compressed size and quality vary with
// scene content even at a fixed setting (the paper's Figure 3) — the VBR
// variation that makes "bitrate" a poor proxy and chunk-size-aware
// prediction (the TTP) worthwhile. We reproduce that with an
// autocorrelated scene-complexity process: each chunk draws a complexity
// value from an AR(1) process with occasional scene cuts, and a chunk's
// size and SSIM at every rung are deterministic functions of that
// complexity plus small encoder noise.
//
// Main entry points:
//
//   - Rung / DefaultLadder: the encoding ladder; Encoding is one rung's
//     output for one chunk (size, SSIM dB).
//   - Chunk: one 2.002 s chunk with all its Versions; ChunkDuration is the
//     NTSC-timed constant.
//   - Profile / Channels / FindProfile: the six simulated live stations
//     with distinct complexity characters.
//   - Source / NewSource: the per-stream chunk generator; Clip /
//     RecordClip: a looping pre-recorded clip for the §5.2 emulation
//     methodology.
package media
