package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"

	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/serve"
	"puffer/internal/stats"
)

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none. BENCHMARK.json repeats these
// tables, and TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees, under regression bounds.
// Every workload reports every metric; README.md says which (workload,
// metric) pairs are native and which are derived from the workload's
// throughput.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_decision", "us", "lower", 0.25},
	{"allocs_per_decision", "count", "lower", 0.15},
	{"decision_p25_us", "us", "lower", 0.25},
	{"decision_p90_us", "us", "lower", 0.25},
}

// workloadNames is the fixed run order of the bench's own suite;
// BENCHMARK.json carries the reasons.
var workloadNames = []string{"daily-session", "daily-fleet", "daily-dist", "serve-closed", "retrain-window"}

// unlisted is the one workload BENCHMARK.json leaves out. The driver's runs
// share one time cap, so each listed workload shortens every run, and on this
// class of host the run-to-run spread falls only with run length; daily-dist
// (three processes on two cores) was the noisiest of the five and differs
// from daily-session by a protocol overhead smaller than that spread. It
// still runs in `go run ./bench` and -selfcheck, for the cross-engine check.
const unlisted = "daily-dist"

// perLayer lists the single-layer metrics of the traced pass as
// <module>.<name>. A workload that does not exercise a layer reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"nn.portable_ns_per_row.b10", "ns", "lower", 0},
		{"nn.packed_ns_per_row.b10", "ns", "lower", 0},
		{"nn.packed_ns_per_row.b1280", "ns", "lower", 0},
		{"nn.flop_per_row", "count", "lower", 0},
		{"nn.weight_bytes", "bytes", "lower", 0},
		{"nn.accelerated", "count", "higher", 0},
		{"nn.train_us_per_example", "us", "lower", 0},
		{"core.predict_us_per_decision", "us", "lower", 0},
		{"core.assemble_us_per_decision", "us", "lower", 0},
		{"core.stage_us_per_decision", "us", "lower", 0},
		{"core.nn_share", "share", "lower", 0},
		{"core.examples_build_s", "s", "lower", 0},
		{"core.train_s", "s", "lower", 0},
		{"core.train_cpu_us_per_example", "us", "lower", 0},
		{"abr.choose_us.fugu", "us", "lower", 0},
		{"abr.choose_us.hm", "us", "lower", 0},
		{"abr.choose_us.bba", "us", "lower", 0},
		{"abr.plan_us", "us", "lower", 0},
		{"abr.plan_share", "share", "lower", 0},
		{"experiment.sim_us_per_decision", "us", "lower", 0},
		{"experiment.analyze_s", "s", "lower", 0},
		{"experiment.budget_residual_share", "share", "lower", 0},
		{"fleet.flushes", "count", "lower", 0},
		{"fleet.rows", "count", "lower", 0},
		{"fleet.mean_batch_rows", "count", "higher", 0},
		{"fleet.max_batch_rows", "count", "higher", 0},
		{"fleet.deferred_share", "share", "higher", 0},
		{"fleet.peak_concurrent", "count", "higher", 0},
		{"fleet.flush_us_per_row.s16", "us", "lower", 0},
		{"fleet.flush_us_per_row.s128", "us", "lower", 0},
		{"fleet.decision_ns_p50", "ns", "lower", 0},
		{"fleet.decision_ns_p99", "ns", "lower", 0},
		{"fleet.flush_ns_mean", "ns", "lower", 0},
		{"fleet.overhead_us_per_decision", "us", "lower", 0},
		{"serve.decision_ns_p50", "ns", "lower", 0},
		{"serve.decision_ns_p99", "ns", "lower", 0},
		{"serve.request_ns_p50", "ns", "lower", 0},
		{"serve.batch_sessions_mean", "count", "higher", 0},
		{"serve.rtt_p50_us", "us", "lower", 0},
		{"serve.rtt_p99_us", "us", "lower", 0},
		{"serve.rtt_p999_us", "us", "lower", 0},
		{"serve.wire_us", "us", "lower", 0},
		{"serve.queue_full", "count", "lower", 0},
		{"serve.proto_errors", "count", "lower", 0},
		{"serve.sessions_aborted", "count", "lower", 0},
		{"runner.day_wall_s", "s", "lower", 0},
		{"runner.trial_wall_s", "s", "lower", 0},
		{"runner.retrain_wall_s", "s", "lower", 0},
		{"runner.checkpoint_s", "s", "lower", 0},
		{"runner.overhead_share", "share", "lower", 0},
		{"runner.scaling_efficiency.session", "share", "higher", 0},
		{"runner.scaling_efficiency.fleet", "share", "higher", 0},
		{"dist.encode_shard_us", "us", "lower", 0},
		{"dist.decode_shard_us", "us", "lower", 0},
		{"dist.blob_bytes_per_shard", "bytes", "lower", 0},
		{"dist.pool_start_s", "s", "lower", 0},
		{"dist.shard_retries", "count", "lower", 0},
		{"dist.overhead_share", "share", "lower", 0},
	}
	for _, w := range workloadNames {
		defs = append(defs, metricDef{"obs.trace_overhead_share." + w, "share", "lower", 0})
	}
	return defs
}()

// summary is a metric's value over the timed repeats: the median is what
// is reported and compared; the rest says how steady the run was.
type summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// MaxOverMin is the noise readout: the ratio of the slowest to the
	// fastest repeat (1 for a single sample).
	MaxOverMin float64 `json:"max_over_min"`
}

// summarize reduces samples to their median, quartiles and range.
func summarize(name, unit string, xs []float64) summary {
	s := summary{Name: name, Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = stats.Quantile(xs, 0.5)
	s.Q1, s.Q3 = stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75)
	s.Min, s.Max = stats.Quantile(xs, 0), stats.Quantile(xs, 1)
	s.MaxOverMin = 1
	if s.Min > 0 {
		s.MaxOverMin = s.Max / s.Min
	}
	return s
}

// histQuantile estimates the p-quantile of a histogram snapshot (usually a
// delta from HistSnapshot.Sub) by interpolating linearly inside the bucket
// that holds the rank. obs.HistSnapshot.Quantile returns the bucket's upper
// bound, which reads identically run after run; a benchmark needs the
// position inside the bucket to see a change smaller than one bucket (1/32).
func histQuantile(s obs.HistSnapshot, p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		n := float64(b.Count)
		if cum+n >= rank {
			frac := (rank - cum) / n
			return float64(b.Low) + frac*float64(b.High+1-b.Low)
		}
		cum += n
	}
	return float64(s.Buckets[len(s.Buckets)-1].High)
}

// statsDigest is the outcome digest of one day's per-scheme analysis: the
// sha256 of its serve.WriteStats rendering, the deterministic report every
// engine and the serving layer must reproduce byte for byte.
func statsDigest(day int, st []experiment.SchemeStats) string {
	var b strings.Builder
	serve.WriteStats(&b, day, st)
	return digestOf(b.String())
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// worse reports by what share of a the value b is worse, given the metric's
// direction (negative when b is better).
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
