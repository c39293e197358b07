#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources (once per source
# state) and runs it with the given arguments. Everything the build and the
# run write stays under .bench_build/ in the current directory.
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 12 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off CGO_ENABLED=0

# Rebuild only when a Go source or module file changed since the last build.
stamp=$(find "$root/perfbench" "$root/internal" -name '*.go' -o -name go.mod | LC_ALL=C sort |
	xargs cat "$root/go.mod" | sha256sum | cut -c1-16)
bin="$build/perfbench-$stamp"
if [ ! -x "$bin" ]; then
	rm -f "$build"/perfbench-*
	(cd "$root/perfbench" && go build -trimpath -o "$bin.partial" .) >&2
	mv "$bin.partial" "$bin"
fi
exec "$bin" "$@"
