#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything it writes — the go tool's build cache,
# module cache, temporary files and telemetry counters, the binary, the
# checkpoint stores of checkpoint_recover — stays under .bench_build at
# the checkout's root; span files go to bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the go tool's telemetry counters (and GOENV, so a
# user-level `go env -w` cannot change the build) in here as well.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/pipes-bench" .
exec "$build/pipes-bench" -tmp "$TMPDIR" "$@"
