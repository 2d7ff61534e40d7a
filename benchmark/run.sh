#!/usr/bin/env bash
# Build the benchmark from this checkout, then run it.
#
#   bash benchmark/run.sh --workload office_week --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh                      # the whole suite, every workload
#   bash benchmark/run.sh compare A.json B.json
#
# Builds three programs into $CARGO_TARGET_DIR (default target/benchmark):
# `bench`, `bench-traced`, and the repo's own `run_server`, which
# office_week feeds over a pipe. `--trace 1` selects `bench-traced`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" \
    -p arm-benchmark -p arm-server --bins

bin=bench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=bench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
