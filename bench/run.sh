#!/usr/bin/env bash
# Builds couchbench and cbserver from source into .bench_build/ at the
# root of the checkout, then runs couchbench with the given arguments.
# Everything the build and the run write stays inside the checkout: the
# Go build cache, Go's temporary files and the clusters' data all live
# under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bin/couchbench" .
go build -o "$build/bin/cbserver" ./cmd/cbserver
exec "$build/bin/couchbench" "$@"
