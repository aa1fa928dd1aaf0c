#!/usr/bin/env bash
# Builds serretimed and the benchmark program from this checkout, then runs
# one benchmark workload against the daemon:
#
#   bash perfbench/run.sh --workload tablei-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, binaries, daemon data directories,
# the traced run's span dump). The last line of standard output is the
# run's JSON result; see perfbench/README.md.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# Telemetry off: otherwise the go command forks a detached telemetry
# sidecar that can outlive the build, and the benchmark.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"
# The official Go install location, for callers whose PATH lacks go.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root" && go build -o "$out/bin/serretimed" ./cmd/serretimed) >&2
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -daemon "$out/bin/serretimed" -workdir "$out/runs" "$@"
