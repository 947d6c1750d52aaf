#!/usr/bin/env bash
# Builds brokerd, the traced server and the benchmark driver from the
# checkout this script lives in, then runs one workload:
#
#   bash _perfbench/run.sh --workload sla-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (binaries, the Go build cache, state directories, logs, trace dumps)
# stays under .bench_build in the checkout. Build output goes to
# standard error; the last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOFLAGS=-mod=mod
export GOPROXY=off

{
    go build -o "$build/bin/brokerd" ./cmd/brokerd
    (cd _perfbench && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/tracedd" ./tracedd)
} 1>&2

exec "$build/bin/perfbench" --bin "$build/bin" --dir "$build" "$@"
