#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload megaincast --seed 1 --seconds 15 --trace 0
#
# Outside a full checkout (no repository module next to perfbench/) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build"
# The toolchain's caches and settings stay inside the checkout; only the
# installed toolchain is used and no module is ever fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)

if [ -d .git ] && commit=$(git rev-parse --short HEAD 2>/dev/null); then
	:
else
	# Not a git checkout: name the sources by their digest instead.
	commit="src-$(find . -path ./.bench_build -prune -o -name '*.go' -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
PERFBENCH_COMMIT="$commit" exec "$build/perfbench" "$@"
