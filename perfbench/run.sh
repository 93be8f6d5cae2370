#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-exact --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay in .bench_build/ so the run writes nothing outside the
# checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off
go -C perfbench build -o "$out/comabench" . >&2
exec "$out/comabench" "$@"
