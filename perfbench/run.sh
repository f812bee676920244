#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload exam-crowd --seed 1 --seconds 30 --trace 0
#
# Everything the build leaves behind goes to .bench_build in the current
# directory: the binary, the Go build cache and the span files of traced
# runs. The benchmark is its own module that resolves elearncloud from
# the parent directory, so outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
