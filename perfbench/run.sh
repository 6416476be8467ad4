#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload model-paper --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout, so nothing is written
# outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" == /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
	GOTELEMETRY=off
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
