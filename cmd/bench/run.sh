#!/usr/bin/env bash
# BENCHMARK.json's command: builds cmd/bench from the checkout's source
# (the checkout is not a git repository and holds no binaries) and runs it
# with the arguments given. Run from the root of the checkout. Everything
# the build and the run write — Go's build cache and temporary files, the
# binary, the databases — stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# cmd/bench is a module of its own that replaces the engine's module with
# ../.. — without the engine's source this build fails and nothing runs.
(cd "$root/cmd/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
