#!/usr/bin/env bash
# Builds the hub benchmark from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash hubbench/run.sh --workload ingest-k6 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout: the Go build cache, the binary, the hubs' data directories
# and the span files of traced runs. The build is offline.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME=$out/config \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp
go -C "$root/hubbench" build -o "$out/hubbench" . >&2
exec "$out/hubbench" -workdir "$out/work" "$@"
