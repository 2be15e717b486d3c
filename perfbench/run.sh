#!/usr/bin/env bash
# run.sh builds the repository benchmark from the sources of the checkout it
# is started in and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload e13-cross --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, traces) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside that root. Build output
# goes to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters) in
# the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
