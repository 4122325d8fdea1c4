#!/usr/bin/env bash
# Builds the benchmark and sunflowd from this checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload paper|faults|daemon|all \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write —
# Go build cache, binaries, daemon data directories — stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/bin"

# Keep the Go toolchain's caches, config and temp files inside the checkout,
# and never let it fetch a different toolchain.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/sunflowd" sunflow/cmd/sunflowd
)

commit=unknown
if [ -f "$root/.git/HEAD" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$out/bin/perfbench" --sunflowd "$out/bin/sunflowd" --workdir "$out/work" --commit "$commit" "$@"
