// Package netem models the network paths Puffer's clients sit behind — the
// half of the paper's argument that lives below TCP. It provides the
// capacity traces, the per-session path distributions ("families"), and the
// nonstationarity machinery that lets the simulated deployment drift under
// a deployed model.
//
// A Trace is a piecewise-constant bottleneck capacity over time. Three
// trace families reproduce the distributional contrast at the heart of the
// paper (§5.2, Figure 2, Figure 11 right panel):
//
//   - Puffer-like (GenPuffer, PufferPaths): what the deployment sees —
//     per-session mean throughput drawn from a heavy-tailed distribution,
//     within-session regime switching with autocorrelated variation, and
//     occasional deep outages (the heavy tail that defeats
//     emulator-trained models).
//   - FCC-like (GenFCC, FCCPaths): what the mahimahi emulation setup
//     replays — bounded, smoother broadband traces with mild variation
//     behind a fixed 40 ms delay shell (§5.2's methodology).
//   - CS2P-like (GenCS2P): a small-state Markov throughput
//     process, reproducing the discrete throughput states of CS2P's
//     Figure 4a that Puffer does NOT observe (the paper's Figure 2
//     contrast).
//
// Main entry points:
//
//   - Trace: the capacity series, one sample per second (RateAt, Mean,
//     Validate); generators GenPuffer/GenFCC, each shaped by its family's
//     fixed constants around a given mean rate, and GenCS2P, Figure 2's
//     20-minute trace around 2.6 Mbit/s.
//   - Sampler: draws a per-session Path (trace + base RTT + queue
//     capacity) from a family; implemented by PufferPaths and FCCPaths.
//   - DaySampler / SampleForDay: day-indexed sampling of a session's
//     900-second path. The continual experiment passes the simulated day
//     to the sampler, so a day-aware family draws each day's sessions from
//     that day's distribution; stationary samplers ignore the day.
//   - DriftingSampler / DriftSchedule / DriftPreset: nonstationarity. A
//     DriftingSampler wraps any base Sampler with a schedule that evolves
//     the population over days — compounding capacity decay, session
//     spread widening, slow-path share growth, outage-rate ramps, and
//     piecewise-linear mixes toward a second family. Deterministic per
//     (seed, day); a zero schedule is draw-for-draw identical to the base
//     sampler. This is what makes the paper's staleness argument visible:
//     in a drifting deployment a frozen model meets paths its training
//     data never contained (the Figure-9-style drift the stationary
//     simulator cannot show).
package netem
