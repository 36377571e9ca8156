#!/usr/bin/env bash
# Builds fleetbench from source into .bench_build/fleetbench and runs it
# with the given arguments. Run from the repository root:
#
#   bash fleetbench/run.sh --workload fresh-short --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the cached model fixtures, span files) stays under .bench_build.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" ]]; then
	echo "fleetbench: run from the repository root: no Go module with internal/serve in $root" >&2
	exit 2
fi
out="$root/.bench_build/fleetbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/fleetbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOPATH="$out/home/go" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
		go build -o "$out/fleetbench" .
)
exec "$out/fleetbench" -root "$root" "$@"
