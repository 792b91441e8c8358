#!/usr/bin/env bash
# Builds the benchmark and the topoconsvc daemon from this checkout's
# sources, then runs one workload:
#
#   bash topobench/run.sh --workload star-quotient --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a topocon checkout. Everything it builds or
# writes goes under $CARGO_TARGET_DIR (default .bench_build), including the
# Go build cache.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/topo ] || [ ! -f cmd/topoconsvc/main.go ] || [ ! -f topobench/go.mod ]; then
	echo "topobench: run from the root of a topocon checkout (go.mod, internal/, cmd/topoconsvc, topobench/)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/bin" "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -o "$build/bin/topoconsvc" ./cmd/topoconsvc
go -C topobench build -o "$build/bin/topobench" .
exec "$build/bin/topobench" -build-dir "$build" "$@"
