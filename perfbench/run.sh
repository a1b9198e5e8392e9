#!/usr/bin/env bash
# Builds factorlogd and the perfbench command from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR, else .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/factorlogd || ! -f testdata/tc3.dl || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a factorlog checkout" >&2
	exit 2
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

# Fall back to the Go distribution's default install location.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
# The go command keeps telemetry under the user config directory.
export XDG_CONFIG_HOME=$build/config

go build -o "$build/bin/factorlogd" ./cmd/factorlogd
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin/factorlogd" -state "$build" "$@"
