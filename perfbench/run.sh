#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository: bash perfbench/run.sh --workload distinct.
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, the binary, temp files, the job
# store and the span dumps.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/gopath" "${build}/run"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/gotmp" GOPATH="${build}/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "${build}/perfbench" .
exec "${build}/perfbench" -root "${root}" -out "${build}/run" "$@"
