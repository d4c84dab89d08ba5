#!/usr/bin/env bash
# Builds streamhistd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout. Without the streamhist sources next to perfbench/ the
# build fails and so does the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOTELEMETRY=off
cd "$root"
go build -o "$out/bin/streamhistd" ./cmd/streamhistd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --daemon "$out/bin/streamhistd" --root "$root" --work "$out" "$@"
