#!/usr/bin/env bash
# cargo for the benchmark package, from any directory:
#   benchmark/cargo.sh run --release -- --workload cold_100k --seed 7
#   benchmark/cargo.sh test --release
# The external crates resolve from vendor/ (stand-ins, see README.md), so
# the build needs no registry and is the same program on every machine. The
# lock file is benchmark/Cargo.lock, never the repository's.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
subcommand="$1"
shift
exec cargo \
  --config 'source.crates-io.replace-with="benchmark-vendor"' \
  --config "source.benchmark-vendor.directory=\"$here/vendor\"" \
  --offline "$subcommand" --manifest-path "$here/Cargo.toml" "$@"
