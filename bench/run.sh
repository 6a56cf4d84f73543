#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds the benchmark (a Go
# module of its own in this directory) and runs it with the arguments
# given, from the root of the checkout. Everything the build and the run
# write stays inside this directory, under .build/ and out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/bin/flasksbench" .
cd "$(dirname "$here")"
exec "$build/bin/flasksbench" "$@"
