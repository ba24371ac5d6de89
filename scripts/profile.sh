#!/bin/sh
# Where the time goes: runs the contra_benchmark binary RUNS times under
# gprofng clock profiling (run i at seed i, `--trace 0`), merges the
# experiments and prints the top-30 function table, exclusive and
# inclusive time per function.
#
#   scripts/profile.sh WORKLOAD [RUNS] [SECONDS]
#
# Defaults: 5 runs of 20 s. Several runs are merged because clock
# profiling can keep only a small fraction of its nominal samples in a
# virtual machine; the table's header states how many were kept. The
# benchmark is built in release first (its own target directory, or
# CARGO_TARGET_DIR), and the experiments are left in
# target/profile/WORKLOAD/ for `gprofng display text` to dig further
# (e.g. `-callers-callees`, `-source FUNCTION`).
set -eu
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/profile.sh WORKLOAD [RUNS] [SECONDS]" >&2
    exit 2
fi
workload=$1
runs=${2:-5}
seconds=${3:-20}
if ! command -v gprofng >/dev/null 2>&1; then
    echo "profile.sh: gprofng is not installed" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
cargo build --release --offline --quiet --manifest-path "$root/contra_benchmark/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$root/contra_benchmark/target}/release/contra_benchmark
out=$root/target/profile/$workload
rm -rf "$out"
mkdir -p "$out"

# The benchmark refuses to run under any CONTRA_* variable.
for var in $(env | sed -n 's/^\(CONTRA_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$var"
done

i=1
while [ "$i" -le "$runs" ]; do
    gprofng collect app -p on -o "$out/run$i.er" \
        "$bin" --workload "$workload" --seed "$i" --seconds "$seconds" \
        --trace 0 --out "$out/bench$i" >/dev/null
    i=$((i + 1))
done
gprofng display text -limit 30 -functions "$out"/run*.er
