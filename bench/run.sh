#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout this script lives in.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
