#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dense-2d --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, temporary files and the binary. The
# binary is rebuilt when any Go source or module file is newer than it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
bin="$build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off
unset GOMAXPROCS GOGC GOMEMLIMIT
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	if ! (cd "$root/perfbench" && go build -o "$bin" .) >&2; then
		echo "perfbench: build failed" >&2
		exit 1
	fi
fi
exec "$bin" "$@"
