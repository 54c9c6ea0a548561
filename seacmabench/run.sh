#!/usr/bin/env bash
# Builds the SEACMA benchmark and the seacma-serve daemon from source and
# runs the benchmark. Run it from the root of a checkout:
#
#   bash seacmabench/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, trace files)
# goes under .bench_build/ at the checkout root. Build output goes to
# stderr, so the last line of stdout is the benchmark's result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

# Keep the Go toolchain's caches, temp files and telemetry inside the
# checkout, and never let it fetch a toolchain or a module.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

cd "$root/seacmabench"
go build -o "$build/bin/seacmabench" . >&2
go build -o "$build/bin/seacma-serve" repro/cmd/seacma-serve >&2
exec "$build/bin/seacmabench" --serve-bin "$build/bin/seacma-serve" --out "$build/work" "$@"
