#!/usr/bin/env bash
# The benchmark driver's entry point (see BENCHMARK.json): build the benchmark
# from source into .bench_build/ at the root of the checkout, then run it with
# the driver's arguments (--workload NAME --seed N --seconds S --trace 0|1).
# Everything the build and the run write — Go's build cache and scratch
# space, the deployment's data, traces, the history file — stays inside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
commit=unknown
if [ -e .git ] && rev=$(git rev-parse HEAD 2>/dev/null); then
    commit=$rev
    [ -z "$(git status --porcelain 2>/dev/null)" ] || commit=$rev-dirty
fi
go build -ldflags "-X main.commit=$commit" -o "$out/bench" ./bench
exec "$out/bench" run "$@"
