// Package obs is the platform's observability layer: atomic counters and
// gauges, fixed-bucket log-scale latency histograms with mergeable
// snapshots and p50/p99/p999 quantiles, named per-stage timers, a
// structured JSONL run-event stream, and profiling hooks (runtime/pprof
// plus an optional HTTP endpoint serving the registry snapshot and
// net/http/pprof).
//
// Everything in this codebase lives by one constraint, and obs states it as
// a contract the differential smokes enforce:
//
//   - Metrics are WRITE-ONLY from engine code. Engine code records into
//     them and never reads one back into anything that shapes a result.
//   - Metrics read the WALL CLOCK only, never virtual time, and never draw
//     from an experiment RNG.
//   - Metrics and events are EXCLUDED from checkpoints, manifests,
//     results.CanonicalBytes, and every accumulator fingerprint.
//
// Consequently every byte-identity guarantee the engines make (workers 1
// vs 8, kill-and-resume, fleet vs sequential, sweep relaunch) holds with
// observability enabled, which TestObs*Identical prove by running the same
// experiments obs-on and obs-off and comparing bytes.
//
// The only permitted readers of a metric are wall-side consumers: progress
// logging (Logf), the Snapshot/WriteJSON/WritePrometheus dumps, and the
// Serve HTTP endpoint. Nothing downstream of a read may feed a Result, a
// checkpoint, an accumulator, or an RNG. The endpoint keeps no time series
// and obs runs no sampler: a reader that wants a window (a rate, a recent
// p99) polls the snapshot twice and subtracts (HistSnapshot.Sub), as
// cmd/puffer-top does.
//
// Recording is gated by a process-global switch (SetEnabled); while
// disabled — the default — every metric write is a single atomic load and
// no clock is read, so uninstrumented-grade performance is the zero state
// and instrumented hot paths stay within the <2% throughput budget when
// enabled (see BenchmarkFleetThroughput's fleet-obs variant).
//
// The registry is per process. The inference-kernel metrics
// (nn_packed_forward_ns, nn_packed_rows_total) sit on every engine's
// forward pass, but a dist worker's registry dies with the worker (and
// workers run with recording off), so a dist run's snapshot still holds no
// kernel timers. Shipping worker snapshots home is ROADMAP item 6. The
// nightly retrain is timed from inside the same way: core.Train records
// core_train_examples_ns (building one horizon step's examples) and
// core_train_fit_ns (fitting its net), one observation each per step per
// call, beside the runner's runner_retrain_wall_ns around the whole phase.
package obs
