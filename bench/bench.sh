#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds the bench
# module from the checkout it stands in and runs one workload.
#
#   bash bench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes stays inside the checkout, under .bench_build:
# the binary, the Go build cache, and the directories the go command would
# otherwise create under $HOME.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

# go build is a no-op when the binary is up to date.
(cd "$here" && go build -o "$build/predbench" .)

cd "$root"
exec "$build/predbench" "$@"
