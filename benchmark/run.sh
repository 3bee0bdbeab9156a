#!/usr/bin/env bash
# Single hermetic entry point of the benchmark.
#
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       Build the harness and pufferd (outside any timed region), then run one
#       workload. This is the command BENCHMARK.json names.
#
#   benchmark/run.sh
#       Full sweep: every workload untraced, then traced, written to
#       benchmark/results/<commit>-untraced.json and <commit>-traced.json.
#
#   benchmark/run.sh -compare old.json new.json
#
# Everything is built from source into .bench_build/ at the checkout root,
# with the Go caches redirected there too, so a run reads and writes only
# inside the checkout. The harness stops every daemon it starts on any exit
# path; the only network use is loopback on an ephemeral port.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# The harness is a module of its own (benchmark/go.mod) that reaches the
# repo's packages through a replace directive; pufferd is the repo's own
# command. Both builds are incremental no-ops once .bench_build is warm.
(cd "$here" && go build -o "$build/bin/harness" .)
(cd "$root" && go build -o "$build/bin/pufferd" ./cmd/pufferd)

work="$build/run.$$"
trap 'rm -rf "$work"' EXIT
harness=("$build/bin/harness" -pufferd "$build/bin/pufferd" -workdir "$work" -results "$here/results")

if [ $# -gt 0 ]; then
	"${harness[@]}" "$@"
	exit $?
fi

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
mkdir -p "$here/results"
status=0
"${harness[@]}" -workload all -trace 0 -out "$here/results/$commit-untraced.json" || status=$?
"${harness[@]}" -workload all -trace 1 -out "$here/results/$commit-traced.json" || status=$?
exit $status
