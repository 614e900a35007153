#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload atrest-wordcount --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the benchmark binary, cached inputs and run outputs all
# stay under .bench_build (or $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
