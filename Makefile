GO ?= go

.PHONY: build test race ci lint lint-baseline doccheck bench-smoke bench-check soak soak-short fuzz-smoke cluster-demo

build:
	$(GO) build ./...

# Invariant linter: stdlib-only interprocedural static analysis
# (cmd/dspslint) enforcing the determinism, hot-path 0-alloc, lock-order,
# and goroutine-lifecycle rules. Exit 1 on findings or on suppression
# drift against the committed baseline; -timings prints per-stage wall
# time (load, callgraph, each analyzer).
lint:
	$(GO) run ./cmd/dspslint -timings -baseline LINT_BASELINE.json ./...

# Regenerate the committed machine-readable lint baseline (schema v2:
# per-analyzer counts, call-graph size, suppressions, alloc exemptions,
# per-stage timings).
lint-baseline:
	$(GO) run ./cmd/dspslint -summary LINT_BASELINE.json ./...

# Documentation gate: markdown link validation plus the exported-symbol
# doc-comment audit over the operator-facing packages.
doccheck:
	bash scripts/doccheck.sh

test:
	$(GO) test ./...

# Race-detector pass over the concurrent packages: the data-parallel
# training engine (internal/nn), the stream engine (internal/dsps), the
# SPSC ring plane under it (internal/ring), the chaos harness that
# hammers it (internal/chaos), the prediction server's coalescer and
# load-test harness (internal/serve), the distributed runtime's
# coordinator/worker protocol stack (internal/cluster), and the linter's
# parallel package loader (internal/analysis).
race:
	$(GO) test -race ./internal/nn/... ./internal/dsps/... ./internal/ring/... ./internal/chaos/... ./internal/serve/... ./internal/cluster/... ./internal/analysis/...

ci:
	sh scripts/ci.sh

# Short deterministic chaos soak (~15s): a generated fault schedule replays
# against the live engine — without the control loop, with it, and with the
# elastic planner live while scale events race a flash crowd — under
# invariant checking. Any violation prints the reproducing seed. The ring
# plane's chaos coverage is TestChaosSoakEngineRings in internal/dsps.
soak-short:
	$(GO) run ./cmd/dspsim -chaos -chaos-seed 1 -duration 4s -rate 300
	$(GO) run ./cmd/dspsim -chaos -chaos-seed 2 -duration 4s -rate 300 -dynamic -control
	$(GO) run ./cmd/dspsim -chaos -chaos-seed 7 -duration 4s -rate 800 -dynamic -control -elastic -shape burst

# Full soak (~2min): a longer dspsim chaos replay plus the stretched
# engine and controlled-bypass soak tests. CHAOS_SOAK_SECONDS widens the
# fault-schedule horizon inside TestChaosSoakEngine.
soak:
	$(GO) run ./cmd/dspsim -chaos -chaos-seed 1 -duration 20s -rate 300 -dynamic -control
	CHAOS_SOAK_SECONDS=10 $(GO) test -run 'TestChaosSoak' -v ./internal/dsps/ ./internal/experiments/

# 10s of native fuzzing per target; corpus finds land in testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzChaosSchedule$$' -run '^$$' -fuzztime 10s ./internal/chaos/
	$(GO) test -fuzz='^FuzzGroupingRatios$$' -run '^$$' -fuzztime 10s ./internal/dsps/
	$(GO) test -fuzz='^FuzzHistogramQuantile$$' -run '^$$' -fuzztime 10s ./internal/dsps/
	$(GO) test -fuzz='^FuzzAckerTrees$$' -run '^$$' -fuzztime 10s ./internal/dsps/
	$(GO) test -fuzz='^FuzzAckerSlabOps$$' -run '^$$' -fuzztime 10s ./internal/dsps/
	$(GO) test -fuzz='^FuzzRingBatchOps$$' -run '^$$' -fuzztime 10s ./internal/ring/
	$(GO) test -fuzz='^FuzzServeWireFrame$$' -run '^$$' -fuzztime 10s ./internal/serve/
	$(GO) test -fuzz='^FuzzClusterWireFrame$$' -run '^$$' -fuzztime 10s ./internal/cluster/

# Multi-process smoke (~8s): a dspsim coordinator plus two real predworker
# processes over the TCP wire protocol, with remote control loops and
# merged /metrics, shut down over the wire. See docs/CLUSTER.md.
cluster-demo:
	bash scripts/cluster_demo.sh

# One iteration of every in-package micro-benchmark under internal/:
# catches benchmark bit-rot in CI without paying for stable numbers. The
# repository's measurements come from bench/ (bench/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# The repository's benchmark (bench/, see BENCHMARK.json) is a module of its
# own, so `go build ./... && go test ./...` never compiles it. Vet it, run
# its self-tests, then run the two open-loop latency workloads for 3 s each;
# a run passes when the last line it prints — the contract's JSON object —
# says its correctness checks held.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	bash bench/bench.sh --workload app_paced --seed 1 --seconds 3 --trace 0 | tail -n 1 | grep '"correct":true'
	bash bench/bench.sh --workload serve_predict --seed 1 --seconds 3 --trace 0 | tail -n 1 | grep '"correct":true'
