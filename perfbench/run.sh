#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload collect --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the checkout:
# ${CARGO_TARGET_DIR:-.bench_build} holds the Go build cache, the binary,
# the run's scratch and the traced runs' Chrome traces. Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out/perfbench-runs" "$@"
