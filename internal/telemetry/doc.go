// Package telemetry defines the per-stream summary figures the analysis is
// built on (watch time, stall time, SSIM mean and variation, startup
// delay), digested from what Puffer's open data release (Appendix B of the
// paper) records per chunk. Everything downstream — the experiment
// analysis, the runner's accumulators, the figures — consumes these
// summaries; no raw event log is kept.
//
// Main entry points:
//
//   - StreamSummary: the per-stream analysis unit, with the eligibility
//     rules the paper applies (Eligible: played and watched >= 4 s) and
//     the slow-path predicate (SlowPath: mean delivery rate < 6 Mbit/s).
//   - SummaryBuilder: streaming construction of a StreamSummary as chunks
//     are sent (running SSIM mean, chunk-to-chunk |dSSIM|, delivered
//     bitrate, path-rate mean).
//   - WriteSummariesCSV: the open-data-style export.
//   - ConcurrencyOf: the serving-side occupancy summary (peak and
//     time-weighted mean of concurrently live sessions, and the span they
//     cover), computed from per-session intervals by the fleet engine.
package telemetry
