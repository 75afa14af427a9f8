#!/usr/bin/env bash
# Single entry point of the benchmark: builds the harness offline, then
# hands its arguments to it.
#
#   benchmark/run.sh                      every workload, untraced then traced,
#                                         results in benchmark/out/results.json
#   benchmark/run.sh suite --quick        the same as a <= 20 s smoke run (not for claims)
#   benchmark/run.sh suite --runs 10      ten untraced runs per workload (seeds S..S+9)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last line of stdout is the result
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh spec                 prints BENCHMARK.json
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
# that is set, to benchmark/target otherwise.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export BENCHMARK_OUT_DIR="${BENCHMARK_OUT_DIR:-$here/out}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
