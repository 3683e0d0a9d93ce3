#!/usr/bin/env bash
# Builds lcbench from source and runs it from the repository root:
#   bash lcbench/run.sh --workload ckpt_sz_file --seed 1 --seconds 30 --trace 0
# The build cache, binary and media files stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd lcbench && go build -o "$build/lcbench" .)
exec "$build/lcbench" --workdir "$build/tmp" "$@"
