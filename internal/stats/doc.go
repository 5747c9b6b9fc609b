// Package stats implements the paper's statistical machinery: bootstrap
// confidence intervals on the aggregate stall ratio (§3.4),
// duration-weighted standard errors on SSIM, CCDFs for the Figure 10
// watch-time tails, and the power analysis behind "it takes about 2
// stream-years of data to distinguish two schemes that differ by 15%"
// (§5.3).
//
// The accumulators are the scaling story: StreamAcc (per-stream watch and
// stall points) and WeightedAcc (duration-weighted means) are mergeable, so
// the sharded runner folds sessions into per-shard accumulators, merges
// them in shard order, and bootstraps once on the merged state
// (StreamAcc.Bootstrap) — session results never materialize at trial scale.
//
// Main entry points:
//
//   - StallRatio / StreamYears over StreamPoint: the headline aggregate
//     estimators; BootstrapStallRatio and Interval: the §3.4 CIs.
//   - StreamAcc / WeightedAcc: the mergeable accumulators
//     (Add/Merge/Bootstrap, weighted means with WeightedMeanSE-style CIs).
//   - Quantile / CCDFAt: distribution readouts for the figures.
//   - PowerConfig / DetectionRate: the §5.3 power analysis.
package stats
