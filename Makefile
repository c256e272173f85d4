# Developer targets: build, vet, test, race-test, fuzzing, chaos tests,
# benchmarks, and the BENCH_EVAL.json hot-path snapshot. `make check` is
# the CI gate.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race fuzz chaos bench bench-smoke bench-module bencheval bench-diff servebench ensemblebench serve-smoke cover-obs check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; this covers the
# sharded evaluation cache, the shared compiled register programs and
# their exogenous plans, and the Workers=8 engine-determinism regression
# test.
race:
	$(GO) test -race ./...

# fuzz runs each fuzz target for FUZZTIME (default 30s). `go test -fuzz`
# accepts only one target per invocation, so targets run sequentially.
fuzz:
	$(GO) test -fuzz FuzzExprParseRoundTrip -fuzztime $(FUZZTIME) ./internal/expr/
	$(GO) test -fuzz FuzzRegisterVMVsTreeEval -fuzztime $(FUZZTIME) ./internal/expr/
	$(GO) test -fuzz FuzzLaneKernelVsScalar -fuzztime $(FUZZTIME) ./internal/bio/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/gp/
	$(GO) test -fuzz FuzzPromExposition -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -fuzz FuzzForecastRequestDecode -fuzztime $(FUZZTIME) ./internal/serve/api/

# chaos runs the fault-injection suite (injected panics, NaN poison,
# checkpoint truncation, resume-under-faults determinism) and the
# clustered-scheduler differential tests (cluster/scalar/worker-count
# parity, with and without faults) under the race detector.
chaos:
	$(GO) test -race ./internal/faultinject/
	$(GO) test -race -run 'Chaos|Cluster|Fault|Quarantine|Backup|Truncation' \
		./internal/evalx/ ./internal/gp/ ./internal/orchestrator/

# bench runs the hot-path microbenchmarks with allocation reporting.
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/expr/ ./internal/bio/ ./internal/evalx/

# bench-smoke compiles and runs every benchmark exactly once (-benchtime=1x):
# a fast CI guard that benchmark code still builds and executes, without
# measuring anything. Includes a short servebench pass (0.2s per load
# level) so the serving load generator stays green without measuring.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/expr/ ./internal/bio/ ./internal/evalx/
	$(GO) test -run xxx -bench EvaluatePop -benchtime 1x .
	$(GO) run ./cmd/riverbench -exp servebench -serve-duration 200ms \
		-serve-out /tmp/BENCH_SERVE.smoke.json
	$(GO) run ./cmd/riverbench -exp ensemblebench -serve-duration 200ms \
		-serve-out /tmp/BENCH_SERVE.smoke.json

# bench-module vets and short-tests the end-to-end benchmark. bench/ is its
# own Go module (bench/go.mod, replacing gmr with the parent directory), so
# the root `go build ./...` never compiles it; this catches API changes
# that would break it.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# bencheval snapshots evaluator cold / tier-1 / param-batch / tier-2
# numbers and cache hit rates into BENCH_EVAL.json (the README performance
# table's source), once per GOMAXPROCS setting (1 and all CPUs).
bencheval:
	$(GO) run ./cmd/riverbench -exp bencheval

# bench-diff re-measures the hot path and fails if any benchmark regresses
# more than 15% in ns/op — or allocates at all more — against the committed
# BENCH_EVAL.json, then re-measures ensemble serving and fails if the fresh
# run or the committed BENCH_SERVE.json ensemble_* rows fall below the 0.90
# mean-lane-fill floor or lose bitwise determinism. Fresh numbers land in
# /tmp so the baselines are only updated deliberately (via `make bencheval`
# / `make ensemblebench`).
bench-diff:
	$(GO) run ./cmd/riverbench -exp bencheval \
		-bench-out /tmp/BENCH_EVAL.head.json -baseline BENCH_EVAL.json
	$(GO) run ./cmd/riverbench -exp ensemblebench -serve-duration 500ms \
		-serve-out /tmp/BENCH_SERVE.head.json -serve-baseline BENCH_SERVE.json

# servebench measures the forecast-serving subsystem under closed-loop
# load (1/8/64 clients, batched vs -serve-nobatch ablation) and writes
# BENCH_SERVE.json (the README serving table's source). Fails unless
# batched and unbatched forecasts are bitwise identical.
servebench:
	$(GO) run ./cmd/riverbench -exp servebench

# ensemblebench measures posterior-ensemble forecasting (8/64/256 members,
# full-year horizon) and merges the ensemble_* throughput and lane-fill
# rows into BENCH_SERVE.json. Fails if any row's mean lane fill is below
# 0.90 or band forecasts differ across worker counts / the no-batch
# ablation.
ensemblebench:
	$(GO) run ./cmd/riverbench -exp ensemblebench

# serve-smoke boots the gmrd daemon on a random port, hits /healthz, one
# /v1/forecast, and one /v2/forecast ensemble request (typed-envelope
# error path included), and drains it — the CI serving smoke job.
serve-smoke:
	$(GO) test -run TestServeSmoke -count 1 ./cmd/gmrd/

# cover-obs enforces the coverage floor on the observability subsystem:
# the registry/tracer/exposition package must stay ≥85% covered (it is
# the single source of truth for every metric the system reports, so an
# untested branch there silently corrupts all telemetry). Prints the
# per-function summary into the CI job log.
cover-obs:
	$(GO) test -coverprofile /tmp/obs.cover.out ./internal/obs/
	$(GO) tool cover -func /tmp/obs.cover.out
	@total=$$($(GO) tool cover -func /tmp/obs.cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" 'BEGIN { if (t+0 < 85) { printf "internal/obs coverage %.1f%% is below the 85%% floor\n", t; exit 1 } \
		printf "internal/obs coverage %.1f%% (floor 85%%)\n", t }'

check: build vet test race chaos fuzz serve-smoke cover-obs bench-module

clean:
	$(GO) clean ./...
