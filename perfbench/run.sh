#!/usr/bin/env bash
# Builds the benchmark and a release (no -race) predictd from the checkout
# it is run in, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
# a directory without the module this benchmark measures fails here, with
# a non-zero exit and no result line
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
go build -o "$build/predictd" ./cmd/predictd >&2
exec "$build/perfbench" -build "$build" -predictd "$build/predictd" "$@"
