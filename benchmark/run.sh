#!/usr/bin/env bash
# The repo benchmark in one command: builds the server (`ppr`, from the root
# manifest) and the benchmark package, then runs the benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]     every workload, both ways
#   benchmark/run.sh --workload NAME --trace 0|1 ...        one run; last line is JSON
#   benchmark/run.sh --check-determinism                    layer replay twice
#   benchmark/run.sh compare A B                            two result sets
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# With CARGO_TARGET_DIR set (relative paths are relative to the repo root,
# where both builds run) the two workspaces share it; otherwise each keeps
# its default.
server_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"

# --manifest-path so a missing manifest is an error, not a search upwards.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ppr
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

if [ "${1:-}" = compare ]; then
    exec "$bench_target/release/benchmark" "$@"
fi
exec "$bench_target/release/benchmark" run --ppr "$server_target/release/ppr" "$@"
