#!/usr/bin/env bash
# Builds the benchmark and the pfcimd daemon from the checkout it is run in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mine-small --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/config" "$out/gocache" "$out/gomodcache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/pfcimd" ./cmd/pfcimd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin-dir "$out/bin" -work-dir "$out" "$@"
