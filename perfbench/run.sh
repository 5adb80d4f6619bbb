#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload plan-cktb4 --seed 1 --seconds 20 --trace 0
#
# The build and the Go caches live under .bench_build (or CARGO_TARGET_DIR
# when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" "$@"
