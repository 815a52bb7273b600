#!/usr/bin/env bash
# Builds the host-speed benchmark from source and runs one workload.
#
#   bash hostbench/run.sh --workload widx-probe --seed 42 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the traced run's span files stay under $CARGO_TARGET_DIR (default
# .bench_build), so the run writes nothing outside the checkout and needs
# no network.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd hostbench && go build -o "$out/hostbench" .)
exec "$out/hostbench" --spans "$out/spans" "$@"
