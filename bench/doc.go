// Command bench is the repository's one repeatable benchmark: five named
// workloads driven through the same front doors users use (scenario.Run,
// serve.NewServer + serve.RunLoad, core.Train), with end-to-end metrics that
// carry fixed regression bounds and, in a separate traced pass, per-layer
// metrics and a span file. It changes nothing outside bench/ and measures
// every layer from outside through its public functions.
//
//	go run ./bench                          # every workload, end-to-end table
//	go run ./bench -trace 1                 # plus the traced pass: layer table + bench/out/trace-<workload>.json
//	go run ./bench -workload serve-closed   # one workload; last stdout line is the result JSON
//	go run ./bench -selfcheck               # two full sets A/B of the same commit, JSON verdict on stdout
//	bash bench/run.sh --workload daily-fleet --seed 3 --seconds 22 --trace 0
//
// A run is: sizing the seed's inputs → set-up (repeated, its median reported
// as setup_s) → one discarded warm-up repeat → timed repeats until -seconds
// have elapsed (at least three) → untimed output verification. Every timing
// metric is the median over the quiet timed repeats, those during which the
// host took next to no time from this machine's cores (/proc/stat's steal);
// CPU is getrusage(SELF)+getrusage(CHILDREN).
// The harness pins GOMAXPROCS, engine workers, dist workers and load
// connections to 2 and refuses to run on fewer cores. With no -workload
// each workload runs in its own re-exec'd child of this binary (clean heap,
// clean obs registry, its own ru_maxrss); the same binary answers the hidden
// -dist-worker argv with scenario.ServeDistWorker.
//
// bench/README.md is the metric glossary: units, bounds, why each workload
// exists, which layer it exercises or bypasses, and how the metrics are
// expected to interact. BENCHMARK.json at the repository root is the
// machine-readable contract (it lists four of the five workloads; README.md
// says why daily-dist is left out); TestBenchmarkJSONMatches keeps the two in
// step.
package main
