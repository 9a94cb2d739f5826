#!/usr/bin/env bash
# Builds the javmm benchmark from the checkout's source and runs it. Run it
# from the repository root with the benchmark's flags, e.g.
#
#	bash perfbench/run.sh --workload mode-matrix --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, Go's config and telemetry
# files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOWORK=off GOTELEMETRY=off CGO_ENABLED=0 \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
(cd "$root/perfbench" && go build -o "$out/javmm-perfbench" .) >&2
exec "$out/javmm-perfbench" "$@"
