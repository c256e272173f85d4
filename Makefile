# Developer targets: build, vet, test, race-test, fuzzing, chaos tests and
# the per-layer microbenchmarks. `make check` is the CI gate.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all fmt build vet test race fuzz chaos bench bench-smoke bench-module serve-smoke examples-smoke cover-obs check clean

all: check

# fmt fails when any Go file in the tree is not gofmt-formatted, listing
# the files to reformat (gofmt -w).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

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
# -fuzzminimizetime caps the minimization of each new interesting input:
# under the default 60s cap a worker can spend the rest of FUZZTIME
# minimizing, and the target stops executing new inputs.
fuzz:
	$(GO) test -fuzz FuzzExprParseRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/expr/
	$(GO) test -fuzz FuzzRegisterVMVsTreeEval -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/expr/
	$(GO) test -fuzz FuzzLaneKernelVsScalar -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/bio/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/gp/
	$(GO) test -fuzz FuzzPromExposition -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/obs/
	$(GO) test -fuzz FuzzForecastRequestDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/serve/api/

# chaos runs the fault-injection suite (injected panics, NaN poison,
# checkpoint truncation, resume-under-faults determinism), the
# clustered-scheduler differential tests (parity with the per-individual
# plain-evaluator path and across worker counts, with and without faults) and the divergent-member quarantine of
# every lane-kernel caller under the race detector, concurrent on-demand
# fills of one shared exogenous plan, and island runs whose
# pre-calibrations and final candidate scoring run concurrently.
chaos:
	$(GO) test -race ./internal/faultinject/
	$(GO) test -race -count=10 -run TestExogPlanConcurrentFill ./internal/bio/
	$(GO) test -race -count=3 -run 'TestGoldenIslands|TestRunIslandsCoreSpans' . ./internal/core/
	$(GO) test -race -run 'Chaos|Cluster|Fault|Quarantine|Backup|Truncation' \
		./internal/evalx/ ./internal/gp/ ./internal/orchestrator/ \
		./internal/ensemble/ ./internal/serve/

# BENCH_PKGS are the packages whose Go benchmarks measure one layer each:
# the expression VM, the simulation kernels, the evaluator tiers, the
# calibration objective and the observability hot paths. The root package
# adds the population-pass benchmarks (EvaluatePop): the clustered
# scheduler, and its scalar arm over an evaluator narrowed to the plain
# gp.Evaluator interface (key-less singletons). Their allocs/op
# ceilings are ordinary tests in `make test`; ns/op is for reading, not
# gating: speed is judged end to end by bench/.
BENCH_PKGS = ./internal/expr/ ./internal/bio/ ./internal/evalx/ ./internal/calib/ ./internal/obs/

# bench runs every per-layer microbenchmark with allocation reporting.
bench:
	$(GO) test -run xxx -bench . -benchmem $(BENCH_PKGS)
	$(GO) test -run xxx -bench EvaluatePop -benchmem .

# bench-smoke runs the same benchmarks exactly once (-benchtime=1x): a fast
# CI guard that benchmark code still builds and executes, without
# measuring anything. Serving is benchmarked end to end by bench/
# (serve_point).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x $(BENCH_PKGS)
	$(GO) test -run xxx -bench EvaluatePop -benchtime 1x .

# bench-module vets and short-tests the end-to-end benchmark. bench/ is its
# own Go module (bench/go.mod, replacing gmr with the parent directory), so
# the root `go build ./...` never compiles it; this catches API changes
# that would break it.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# serve-smoke boots the gmrd daemon on a random port, hits /healthz, one
# /v1/forecast, and one /v2/forecast ensemble request (typed-envelope
# error path included), and drains it — the CI serving smoke job.
serve-smoke:
	$(GO) test -run TestServeSmoke -count 1 ./cmd/gmrd/

# examples-smoke runs the Lotka–Volterra example (~4 s) and fails unless
# its revision recruits the seasonal driver S. It drives gp.Engine through
# a plain gp.Evaluator (key-less singletons in the one scheduler, λ = 1
# elite refinement); TestGoldenPlainEvaluator pins that path in
# testdata/golden/plain.golden.
examples-smoke:
	@out=$$($(GO) run ./examples/lotkavolterra) || exit 1; echo "$$out"; \
	case "$$out" in *"recruited the seasonal driver S"*) ;; \
	*) echo "examples-smoke: the Lotka–Volterra revision did not recruit S"; exit 1;; esac

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

check: fmt build vet test race chaos fuzz serve-smoke examples-smoke cover-obs bench-module

clean:
	$(GO) clean ./...
