#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything the build writes (binary, Go
# build cache) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
