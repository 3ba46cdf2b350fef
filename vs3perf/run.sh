#!/usr/bin/env bash
# Builds the vs3perf benchmark from the checkout's sources and runs it.
#
#   bash vs3perf/run.sh --workload engine-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, module cache, telemetry, temp files, the binary, stores,
# traces) stays under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

(
	cd "$root/vs3perf"
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOPATH=$out/home/go \
		GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOWORK=off GOPROXY=off \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$out/vs3perf" .
)
exec "$out/vs3perf" -out "$out" "$@"
