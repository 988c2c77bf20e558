#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the caller's arguments. Every byte the
# build and the run write stays inside the checkout: the go build cache and
# module cache are redirected from $HOME.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/bench" && go build -o "$build/ndsbench12" .)
cd "$root"
exec "$build/ndsbench12" "$@"
