#!/usr/bin/env bash
# Builds the benchmark and runs it against this checkout:
#
#   bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
#   bash benchmark/run.sh compare A.jsonl B.jsonl
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root: the Go build cache, temporary files, the binaries and the
# span files. No network is used.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
