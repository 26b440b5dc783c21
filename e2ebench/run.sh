#!/bin/sh
# Builds the flowmotif binary and this benchmark's binary from source,
# then runs one workload. Run from the repository root:
#
#   sh e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), inputs
# and spans to .bench_work/<workload>/.
set -eu
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "e2ebench: run from the root of a flowmotif checkout" >&2
  exit 2
fi
: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin flowmotif >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
# Pin the benchmark and every process it starts to one CPU. The served
# workloads hand each request between the client, the event loop and the
# worker thread; on a small VM a wake-up on another CPU costs a trip
# through the hypervisor whose price swings with the host's load, and
# unpinned runs of one seed differed by 2x in ingest rate.
cpu=$(taskset -cp $$ 2>/dev/null | sed 's/.*[ ,-]//')
pin=""
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  pin="taskset -c $cpu"
fi
exec $pin "$CARGO_TARGET_DIR/release/flowmotif-e2ebench" \
  --bin "$CARGO_TARGET_DIR/release/flowmotif" --work .bench_work "$@"
