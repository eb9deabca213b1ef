#!/usr/bin/env bash
# Build the perf harness from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and run it with
# the given arguments. Run from the repository root:
#
#   bash perf/run.sh --workload replay-fin1-write --seed 1 --seconds 10 --trace 0
#   bash perf/run.sh compare a.jsonl b.jsonl
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -o "$out/perf" ./perf
exec "$out/perf" "$@"
