#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temp files, telemetry) under .bench_build
# in the current directory, which must be the repository root.
#
#   bash bench/run.sh --workload train_small --seed 1 --seconds 20 --trace 0
#
# All arguments are passed to the benchmark binary (see bench/README.md).
# A failed build exits non-zero before anything is printed on stdout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
# Telemetry off: no counter files and no uploader process left behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -C "$root/bench" -o "$build/gmrbench" . 1>&2
exec "$build/gmrbench" "$@"
