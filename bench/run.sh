#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's build cache too,
# so nothing is written outside the checkout) and runs it with the given
# arguments. BENCHMARK.json's command; `go run ./bench` is the same program.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod and internal/ are missing)" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
