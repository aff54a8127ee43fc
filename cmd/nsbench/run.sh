#!/bin/sh
# Builds nsbench from source into .bench_build/ under the current directory
# (the checkout root) and runs it with the given flags. The Go build and
# module caches are kept there too, so nothing outside the checkout is
# written and the first run pays the whole compile.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/cmd/nsbench" -o "$build/nsbench" .
exec "$build/nsbench" "$@"
