#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from source into the
# checkout's own .bench_build/ (Go build cache and temp files included,
# so nothing is written outside the checkout), then run it with the
# driver's arguments. Build chatter goes to stderr; the program's last
# stdout line is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/gptpu-benchmark" .) >&2
cd "$(dirname "$here")"
exec "$out/gptpu-benchmark" "$@"
