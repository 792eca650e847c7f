#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# a checkout of the repository:
#
#   bash perfbench/run.sh --workload seed-sweep --seed 1 --seconds 20 --trace 0
#
# With no --workload it runs every workload, each in its own process.
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
# The module's replace directive points at the enclosing repository;
# without it (the benchmark's files alone) the build fails here.
(cd "$here" && go build -o "$out/perfbench" .)
# The Go heap hands freed pages back with MADV_FREE instead of
# MADV_DONTNEED, so a page it releases and later reuses is not faulted
# in again. Which fresh-session runs paid those faults depended on where
# the scavenger's releases happened to land, and that swung
# design-space's latency tail from run to run.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"

case " $* " in
*" --workload "* | *" --workload="* | *" -workload "* | *" -workload="* | *" --repin "* | *" -repin "*)
	exec "$out/perfbench" "$@"
	;;
esac
for w in seed-sweep design-space job-service; do
	"$out/perfbench" --workload "$w" "$@"
done
