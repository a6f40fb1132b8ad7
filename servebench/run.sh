#!/usr/bin/env bash
# Build `mpcskew` and the benchmark from source, then run one workload:
#   bash servebench/run.sh --serve-flags "<mpcskew serve flags>" \
#       --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin mpcskew >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/mpcskew" "$@"
