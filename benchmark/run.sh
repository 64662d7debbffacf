#!/usr/bin/env bash
# Builds the openbi end-to-end benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash benchmark/run.sh --workload kb-build --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, binary, KB files, span dumps)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/config" "${out}/gopath"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/gotmp"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "${root}/benchmark" build -buildvcs=false -o "${out}/openbi-bench" .
exec "${out}/openbi-bench" --workdir "${out}" "$@"
