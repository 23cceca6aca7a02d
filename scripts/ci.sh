#!/usr/bin/env sh
# CI gate: vet, gofmt, the dspslint invariant linter (including the unused
# analyzer), doccheck, build, full test suite, the race detector over the
# packages with real concurrency (training engine, stream engine, SPSC ring
# plane, chaos harness, prediction server), one iteration of every
# in-package micro-benchmark under internal/, a build-and-run check of the
# bench/ module, a short chaos soak against the live engine, and a fuzz
# smoke over each native fuzz target. Run via `make ci` or directly.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== dspslint (invariant linter) =="
# The JSON artifact step is a gate too: a lint regression must fail CI
# here, not ride along as a quietly-red artifact. The human-readable
# `make lint` run below re-checks with the suppression baseline and
# prints per-stage timings.
mkdir -p artifacts
go run ./cmd/dspslint -json ./... > artifacts/dspslint.json
lint_start=$(date +%s)
make lint
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "dspslint wall: ${lint_elapsed}s"
if [ "$lint_elapsed" -ge 30 ]; then
	echo "dspslint took ${lint_elapsed}s; the lint gate must stay under 30s" >&2
	exit 1
fi

echo "== doccheck (markdown links + godoc audit) =="
make doccheck

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (nn, dsps, ring, chaos, serve, cluster, analysis) =="
make race

echo "== go test -race ./internal/serve at GOMAXPROCS=4 (one dispatcher per core, more dispatchers than cores) =="
GOMAXPROCS=4 go test -race ./internal/serve

echo "== bench smoke (1 iteration of every internal/ benchmark) =="
make bench-smoke

echo "== bench check (bench/ module vet + self-tests, 3 s app_paced and serve_predict) =="
make bench-check

echo "== chaos soak (short) =="
make soak-short

echo "== cluster demo (coordinator + 2 worker processes) =="
make cluster-demo

echo "== fuzz smoke (10s per target) =="
make fuzz-smoke

echo "CI OK"
