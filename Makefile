# Local developer entry points, mirrored 1:1 by .github/workflows/ci.yml:
# `make ci` runs exactly what CI runs, so a green local run means a green PR.

GO ?= go
# Session count for the benchmark smoke pass — small enough to finish in a
# couple of minutes, large enough to exercise every figure end to end.
BENCH_SESSIONS ?= 40

# Checkpoint dir for the daily-loop smoke run.
DAILY_DIR ?= /tmp/puffer-daily-smoke

# Session-count multiplier applied to the examples in the docs smoke run —
# small enough that all four examples finish in seconds.
EXAMPLE_SCALE ?= 0.1

# Days/sessions/epochs multiplier for the scenario smoke run (every
# registered scenario, clamped to 2 days x 8 sessions x 1 epoch minimum).
SCENARIO_SCALE ?= 0.02

# Scratch dir for the sweep smoke run's index + checkpoints.
SWEEP_DIR ?= /tmp/puffer-sweep-smoke

.PHONY: fmt fmt-check vet build cross loc test bench bench-e2e daily-smoke docs-smoke figures-smoke scenario-smoke sweep-smoke obs-smoke serve-smoke trace-smoke dist-smoke fuzz-smoke ci

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Cross-compile for a GOARCH with no assembly, so the portable bodies of the
# nn kernel primitives (internal/nn/affine.go + affine_noasm.go) — what every
# platform but amd64 runs — are compiled and vetted on every push.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/nn

# The round's tracked size: non-test Go lines outside bench/ (ROADMAP's
# second aim is that this number goes down).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

test:
	$(GO) test -race ./...

# Compile and execute every benchmark once (figures included) as a smoke
# check; use `go test -bench=. -benchmem ./...` directly for real timings.
bench:
	PUFFER_BENCH_SESSIONS=$(BENCH_SESSIONS) $(GO) test -run=NoTests -bench=. -benchtime=1x ./...

# Daily-loop smoke: run the continual experiment for one day into a fresh
# checkpoint dir, then ask the same dir for two days — the second invocation
# must resume at day 1, exercising kill-and-resume end to end (2 days x 40
# sessions, nightly retraining on). Both execution engines run the same
# smoke, so every push exercises the per-session and fleet paths.
daily-smoke:
	rm -rf $(DAILY_DIR) $(DAILY_DIR)-fleet
	$(GO) run ./cmd/puffer-daily -days 1 -sessions 40 -window 2 -epochs 2 -seed 1 -checkpoint $(DAILY_DIR) -ablation=false -q
	$(GO) run ./cmd/puffer-daily -days 2 -sessions 40 -window 2 -epochs 2 -seed 1 -checkpoint $(DAILY_DIR) -ablation=false
	test -d $(DAILY_DIR)/retrain/day_001
	$(GO) run ./cmd/puffer-daily -days 1 -sessions 40 -window 2 -epochs 2 -seed 1 -engine fleet -arrival-rate 2 -checkpoint $(DAILY_DIR)-fleet -ablation=false -q
	$(GO) run ./cmd/puffer-daily -days 2 -sessions 40 -window 2 -epochs 2 -seed 1 -engine fleet -arrival-rate 2 -checkpoint $(DAILY_DIR)-fleet -ablation=false
	test -d $(DAILY_DIR)-fleet/retrain/day_001

# Docs smoke: fail if any package is missing a package doc comment
# (cmd/doccheck), then briefly run every examples/ program end to end —
# examples have no test files, so this is their only CI coverage.
docs-smoke:
	$(GO) run ./cmd/doccheck
	PUFFER_EXAMPLE_SCALE=$(EXAMPLE_SCALE) $(GO) run ./examples/quickstart
	PUFFER_EXAMPLE_SCALE=$(EXAMPLE_SCALE) $(GO) run ./examples/abr-tournament
	rm -f tournament_streams.csv
	PUFFER_EXAMPLE_SCALE=$(EXAMPLE_SCALE) $(GO) run ./examples/uncertainty
	PUFFER_EXAMPLE_SCALE=$(EXAMPLE_SCALE) $(GO) run ./examples/insitu-vs-emulation

# Figures smoke: the paper's primary-trial readouts at a small scale, twice.
# Both runs must be byte-identical to each other (every figure is seeded,
# §5.3's resampling pool included) and to the committed golden, so a change
# that moves any table shows up here.
figures-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/figures ./cmd/figures; \
	$$bin/figures -fig 1,4,8,9,10,11,A1,3.4,4.6,5.3 -scale 200 -seed 1 -q > $$bin/a.out; \
	$$bin/figures -fig 1,4,8,9,10,11,A1,3.4,4.6,5.3 -scale 200 -seed 1 -q > $$bin/b.out; \
	cmp $$bin/a.out $$bin/b.out; \
	cmp $$bin/a.out cmd/figures/testdata/smoke.golden; \
	echo "figures-smoke: two runs byte-identical to each other and to the golden"

# Scenario smoke: briefly run every registered scenario (scaled down via
# PUFFER_SCENARIO_SCALE) and prove the scenario API's round trip on each —
# the -dump-scenario output, run from the file, is byte-identical on stdout
# to running the scenario by name.
scenario-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/puffer-daily ./cmd/puffer-daily; \
	$$bin/puffer-daily -list-scenarios > $$bin/list.txt; \
	names=$$(awk '{print $$1}' $$bin/list.txt); \
	test -n "$$names" || { echo "scenario-smoke: no registered scenarios"; exit 1; }; \
	for s in $$names; do \
		echo "== scenario $$s"; \
		$$bin/puffer-daily -scenario $$s -dump-scenario > $$bin/$$s.json; \
		PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-daily -scenario $$s -q > $$bin/$$s.byname.out; \
		PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-daily -scenario $$bin/$$s.json -q > $$bin/$$s.byfile.out; \
		cmp $$bin/$$s.byname.out $$bin/$$s.byfile.out; \
	done

# Sweep smoke: run the committed 2x2 drift x engine grid into a fresh
# index, then launch the identical sweep again — the second launch must
# find every cell in the index and execute zero runs. The first launch's
# metrics dump must count runner days: cells run in the sweep's own
# process. A query over the populated index must match the committed
# golden (deterministic columns only: expansion names, axis values, spec
# hashes).
sweep-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/puffer-sweep ./cmd/puffer-sweep; \
	rm -rf $(SWEEP_DIR); \
	PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-sweep run \
		-sweep scenarios/sweeps/smoke-grid.json \
		-index $(SWEEP_DIR)/index.jsonl -checkpoint $(SWEEP_DIR)/ckpt \
		-obs-dump $$bin/metrics.json; \
	jq -e '[.counters[] | select(.name=="runner_days_total")] | first | .value > 0' $$bin/metrics.json >/dev/null; \
	out=$$(PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-sweep run \
		-sweep scenarios/sweeps/smoke-grid.json \
		-index $(SWEEP_DIR)/index.jsonl -checkpoint $(SWEEP_DIR)/ckpt); \
	echo "$$out"; \
	case "$$out" in *"ran 0,"*) ;; *) echo "sweep-smoke: second launch executed cells"; exit 1;; esac; \
	$$bin/puffer-sweep query -index $(SWEEP_DIR)/index.jsonl \
		-cols name,drift.preset,engine.kind,hash > $$bin/query.out; \
	cmp $$bin/query.out scenarios/sweeps/smoke-grid.golden

# End-to-end benchmark: bench/ through BENCHMARK.json's own command, all
# workloads or one (WORKLOAD=daily-session), on the default input seed or
# SEED=N. Not part of `ci`: `go test ./bench` already smokes it at -short
# sizes, and a full run takes minutes.
bench-e2e:
	bash bench/run.sh $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEED),--seed $(SEED))

# Observability smoke: the zero-perturbation contract end to end on real
# binaries. The same 2-day fleet scenario runs twice — observability off,
# then fully on (live endpoint + exit dump + event log) with the snapshot
# endpoint curled mid-run — and the runs must agree byte-for-byte on
# stdout and on every checkpoint file. The live and exit snapshots must be
# well-formed (jq) and publish the decision-latency summary. Each leg
# runs ~2 s on an idle two-core host, long enough that the mid-run probe
# still answers when the host is busy.
obs-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/puffer-daily ./cmd/puffer-daily; \
	flags="-days 2 -sessions 192 -window 2 -epochs 1 -seed 7 -engine fleet -arrival-rate 4 -ablation=false"; \
	$$bin/puffer-daily $$flags -checkpoint $$bin/off-ckpt -q > $$bin/off.out; \
	port=$$((20000 + $$$$ % 20000)); \
	$$bin/puffer-daily $$flags -checkpoint $$bin/on-ckpt \
		-obs-listen 127.0.0.1:$$port -obs-dump $$bin/metrics.json \
		-obs-events $$bin/run.events -q > $$bin/on.out & pid=$$!; \
	live=""; \
	for i in $$(seq 1 500); do \
		if curl -sf http://127.0.0.1:$$port/metrics.json -o $$bin/live.json \
			&& curl -sf http://127.0.0.1:$$port/metrics -o $$bin/live.prom \
			&& curl -sf http://127.0.0.1:$$port/debug/pprof/cmdline -o $$bin/cmdline; then \
			live=ok; break; \
		fi; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 0.02; \
	done; \
	wait $$pid; \
	test -n "$$live" || { echo "obs-smoke: live snapshot endpoint never answered"; exit 1; }; \
	cmp $$bin/off.out $$bin/on.out; \
	diff -r $$bin/off-ckpt $$bin/on-ckpt; \
	jq -e '(.counters | type=="array") and (.histograms | type=="array")' $$bin/live.json >/dev/null; \
	grep -q '^fleet_decision_ns{quantile="0.99"}' $$bin/live.prom; \
	test -s $$bin/cmdline; \
	jq -e '[.histograms[] | select(.name=="fleet_decision_ns")] | first | .count > 0' $$bin/metrics.json >/dev/null; \
	jq -s -e '[.[] | select(.type=="day_done")] | length == 2' $$bin/run.events >/dev/null; \
	echo "obs-smoke: obs-on run byte-identical to obs-off; endpoint and snapshots well-formed"

# Serving smoke: the wall-clock layer end to end on real binaries. A
# daemon serves day 0 of the stationary scenario (scaled down via
# PUFFER_SCENARIO_SCALE so the whole target stays well under a minute);
# a paced load generator is SIGKILLed mid-run — client death must never
# wound the daemon — then a fresh client runs the full trial and its
# results table must be byte-identical to the -virtual twin (the same
# plan on the deterministic virtual-time engine). The live metrics
# endpoint is curled mid-run; SIGTERM must drain cleanly with zero
# session-clock violations and a served decision-latency histogram.
serve-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin ./cmd/puffer-serve ./cmd/puffer-load; \
	port=$$((20000 + $$$$ % 20000)); obsport=$$((port + 7)); \
	common="-scenario stationary -day 0 -sessions 64"; \
	PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-serve $$common \
		-listen 127.0.0.1:$$port -obs-listen 127.0.0.1:$$obsport \
		-drain-timeout 5s -q > $$bin/serve.out & pid=$$!; \
	for i in $$(seq 1 500); do \
		grep -q '^serving ' $$bin/serve.out 2>/dev/null && break; \
		kill -0 $$pid 2>/dev/null || { echo "serve-smoke: daemon died"; exit 1; }; \
		sleep 0.02; \
	done; \
	grep -q '^serving ' $$bin/serve.out || { echo "serve-smoke: no readiness line"; exit 1; }; \
	PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-load $$common \
		-addr 127.0.0.1:$$port -timescale 0.2 -q > /dev/null 2>&1 & lpid=$$!; \
	sleep 1; kill -9 $$lpid 2>/dev/null || true; wait $$lpid 2>/dev/null || true; \
	curl -sf http://127.0.0.1:$$obsport/metrics.json -o $$bin/live.json; \
	jq -e '.counters | type=="array"' $$bin/live.json >/dev/null; \
	PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-load $$common \
		-addr 127.0.0.1:$$port -q > $$bin/served.out; \
	PUFFER_SCENARIO_SCALE=$(SCENARIO_SCALE) $$bin/puffer-load $$common \
		-virtual -q > $$bin/virtual.out; \
	cmp $$bin/served.out $$bin/virtual.out; \
	curl -sf http://127.0.0.1:$$obsport/metrics.json -o $$bin/final.json; \
	jq -e '([.counters[] | select(.name=="serve_clock_violations_total") | .value] + [0]) | first == 0' $$bin/final.json >/dev/null; \
	jq -e '[.counters[] | select(.name=="serve_decisions_total")] | first | .value > 0' $$bin/final.json >/dev/null; \
	jq -e '[.histograms[] | select(.name=="serve_decision_ns")] | first | .count > 0' $$bin/final.json >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	grep -q '^drained:' $$bin/serve.out; \
	echo "serve-smoke: served table byte-identical to the virtual twin; drain clean; zero clock violations"

# Tracing smoke: decision-level tracing end to end on a real binary. The
# same 2-day fleet scenario runs untraced, then with every decision traced
# to a Chrome trace file — stdout must be byte-identical (tracing is
# wall-side only), and the trace must be well-formed trace-event JSON
# (Perfetto-loadable) carrying the decision-path span taxonomy.
trace-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/puffer-daily ./cmd/puffer-daily; \
	flags="-days 2 -sessions 48 -window 2 -epochs 1 -seed 7 -engine fleet -arrival-rate 4 -ablation=false"; \
	$$bin/puffer-daily $$flags -q > $$bin/off.out; \
	$$bin/puffer-daily $$flags -trace-out $$bin/trace.json -q > $$bin/on.out; \
	cmp $$bin/off.out $$bin/on.out; \
	jq -e '.displayTimeUnit == "ms"' $$bin/trace.json >/dev/null; \
	jq -e '[.traceEvents[] | select(.ph=="X")] | length > 0' $$bin/trace.json >/dev/null; \
	jq -e '[.traceEvents[] | select(.ph=="X")] | all(.ts >= 0 and .dur >= 0 and (.name|type=="string") and (.pid|type=="number") and (.tid|type=="number"))' $$bin/trace.json >/dev/null; \
	names=$$(jq -r '[.traceEvents[] | select(.ph=="X") | .name] | unique | join(" ")' $$bin/trace.json); \
	for want in fleet_decision batch_residency infer_flush kernel day trial retrain; do \
		case " $$names " in *" $$want "*) ;; *) echo "trace-smoke: missing $$want span (got: $$names)"; exit 1;; esac; \
	done; \
	jq -e '[.traceEvents[] | select(.ph=="M" and .name=="process_name")] | length > 0' $$bin/trace.json >/dev/null; \
	echo "trace-smoke: traced run byte-identical to untraced; Chrome trace well-formed ($$names)"

# Dist smoke: the coordinator/worker engine end to end on a real binary.
# The same 2-day scenario runs single-process, then split across 4 worker
# processes — with the coordinator killed between days (simulated by a
# -days 1 run resumed to -days 2) AND a worker process killed mid-shard on
# the resumed day via the fault hook. Stdout must be byte-identical, every
# checkpoint file must match (manifests excepted: they record the spec,
# which names the engine), and the metrics dump must show the worker
# restart and shard reassignment actually happened.
dist-smoke:
	@set -e; \
	bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/puffer-daily ./cmd/puffer-daily; \
	flags="-days 2 -sessions 48 -window 2 -epochs 1 -seed 7 -shard 8 -ablation=false"; \
	$$bin/puffer-daily $$flags -checkpoint $$bin/single-ckpt -q > $$bin/single.out; \
	$$bin/puffer-daily $$flags -days 1 -dist-workers 4 -checkpoint $$bin/dist-ckpt -q > /dev/null; \
	PUFFER_DIST_FAULT=kill-worker:day1:shard2 $$bin/puffer-daily $$flags -dist-workers 4 \
		-checkpoint $$bin/dist-ckpt -obs-dump $$bin/metrics.json -q > $$bin/dist.out; \
	cmp $$bin/single.out $$bin/dist.out; \
	diff -r --exclude=manifest.json $$bin/single-ckpt $$bin/dist-ckpt; \
	jq -e '[.counters[] | select(.name=="dist_worker_restarts_total")] | first | .value >= 1' $$bin/metrics.json >/dev/null; \
	jq -e '[.counters[] | select(.name=="dist_shard_retries_total")] | first | .value >= 1' $$bin/metrics.json >/dev/null; \
	echo "dist-smoke: worker-process run byte-identical to single-process, through a coordinator restart and a killed worker"

# Fuzz smoke: a few seconds of native fuzzing on each internal/wire boundary
# reader — every socket, pipe, index and event-log byte enters through one of
# the two — on the two payload decoders a served client reaches first,
# Hello and Decide (an accepted Decide must also survive an MPC-HM decision),
# and on the scenario spec parser (a valid spec's canonical JSON must be a
# fixed point with stable hashes). The committed seeds under
# internal/{wire,serve,scenario}/testdata/fuzz run in every plain `go test`
# as well; this adds fresh mutations on each push.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=5s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzScanLines -fuzztime=5s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeHello -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDecide -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=5s ./internal/scenario

# `loc` runs last so every green run ends on the round's tracked number.
ci: fmt-check vet build cross test bench daily-smoke docs-smoke figures-smoke scenario-smoke sweep-smoke obs-smoke serve-smoke trace-smoke dist-smoke fuzz-smoke loc
