#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload snapshot-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
	echo "perfbench/run.sh: run from the repository root (go.mod, internal/ and perfbench/ not all found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export GOCACHE="$out/go-build"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
