#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the arguments given.
# Everything the go tool writes stays under benchmark/out/, which
# benchmark/.gitignore ignores.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p benchmark/out
export GOCACHE="$root/benchmark/out/gocache" GOTOOLCHAIN=local
go build -o benchmark/out/almanac-benchmark ./benchmark
exec benchmark/out/almanac-benchmark "$@"
