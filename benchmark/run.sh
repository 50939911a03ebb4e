#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (package ./benchmark
# of the repository's module) from the checkout's source and runs it from the
# checkout's root with the driver's arguments. The driver's contract lets a
# run write only inside its checkout, so Go's build cache goes beside the
# binary in benchmark/out, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
export GOCACHE="$PWD/benchmark/out/gocache"
go build -o benchmark/out/mithribench ./benchmark
exec benchmark/out/mithribench "$@"
