#!/usr/bin/env bash
# Builds the hermes benchmark and hermes-serve from source, then runs
# the benchmark with the arguments given:
#
#   bash benchmark/run.sh --workload forkjoin|serve|sim --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache
# and the span files of traced runs go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off GOTELEMETRY=off

# The benchmark is a module of its own that resolves hermes from the
# parent directory; without the repository around it, this build fails.
(cd benchmark && go build -o "$out/bin/hermes-benchmark" . && go build -o "$out/bin/hermes-serve" hermes/cmd/hermes-serve) >&2

exec "$out/bin/hermes-benchmark" -serve-bin "$out/bin/hermes-serve" -out "$out" "$@"
