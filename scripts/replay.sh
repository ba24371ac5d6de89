#!/usr/bin/env bash
# The scheduler replay: judges a change to crates/sim/src/sched.rs inside
# one process, where the host's drift between processes cancels.
#
#   scripts/replay.sh PARENT_REV [--reps N] [--workload W]... [--quick]
#
# 1. Records. The working tree's files are copied into a temporary
#    directory, scripts/replay/record.patch is applied there (the checkout
#    is never written), and that copy's contra_benchmark runs one rep of
#    each workload (`--rounds 1 --trace 0`, seed 1, `--quick` with
#    --quick), writing every push and pop of its first wheel.
# 2. Replays. scripts/replay/main.rs is compiled with PARENT_REV's
#    sched.rs (`git show`) and the working tree's as two modules, and
#    replays each trace N times through both plus the parent once more
#    (the A/A floor), in rotating order. It prints each side's median
#    time and allocations per replay, the median paired ratio change /
#    parent [IQR] and the A/A ratio, and fails if a pop ever differs from
#    the recording.
#
# Defaults: 41 reps; fabric_probe, dc_tcp and wan_tcp. Full traces hold
# 2-5 M operations (16 bytes each); on 2 vCPUs one rep of all three
# traces takes under a second, the recorder's release build ~35 s.
# Exit 1 if a step fails or a pop differs, 2 on a usage error.
set -euo pipefail
export LC_ALL=C

usage() {
    sed -n '5p' "$0" | sed 's/^#   /usage: /' >&2
    exit 2
}

root=$(cd "$(dirname "$0")/.." && pwd)
[ $# -ge 1 ] || usage
rev=$1
shift
reps=41
quick=()
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
    --reps)
        [ $# -ge 2 ] && [[ $2 =~ ^[1-9][0-9]*$ ]] || usage
        reps=$2
        shift 2
        ;;
    --workload)
        [ $# -ge 2 ] || usage
        case $2 in
        fabric_probe | dc_tcp | wan_tcp) workloads+=("$2") ;;
        *)
            echo "replay.sh: no scheduler trace for workload '$2'" >&2
            exit 2
            ;;
        esac
        shift 2
        ;;
    --quick)
        quick=(--quick)
        shift
        ;;
    *) usage ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(fabric_probe dc_tcp wan_tcp)

cd "$root"
work=$(mktemp -d "${TMPDIR:-/tmp}/contra-replay.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
if ! git show "$rev:crates/sim/src/sched.rs" >"$work/src/parent.rs"; then
    echo "replay.sh: no crates/sim/src/sched.rs at '$rev'" >&2
    exit 2
fi

# Step 1: the recording copy.
tree="$work/tree"
mkdir "$tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [ -e "$file" ]; then printf '%s\0' "$file"; fi
    done |
    tar --null -T - -cf - | tar -C "$tree" -xf -
if ! git -C "$tree" apply scripts/replay/record.patch 2>"$work/apply.log"; then
    echo "replay.sh: scripts/replay/record.patch no longer applies to crates/sim/src/sched.rs" >&2
    sed 's/^/    /' "$work/apply.log" >&2
    exit 1
fi
echo "building the recorder..." >&2
CARGO_TARGET_DIR="$work/target" cargo build --release --offline -q \
    --manifest-path "$tree/contra_benchmark/Cargo.toml"
# The benchmark refuses to run under any CONTRA_* variable.
unset_contra=()
while IFS= read -r var; do unset_contra+=(-u "$var"); done < <(env | sed -n 's/^\(CONTRA_[A-Za-z0-9_]*\)=.*/\1/p')
traces=()
for w in "${workloads[@]}"; do
    echo "recording $w..." >&2
    env "${unset_contra[@]}" SCHED_TRACE_OUT="$work/$w.trace" \
        "$work/target/release/contra_benchmark" --workload "$w" --rounds 1 --trace 0 \
        "${quick[@]}" --out "$work/bench" >"$work/bench.log"
    if [ ! -s "$work/$w.trace" ]; then
        echo "replay.sh: the $w run wrote no trace" >&2
        exit 1
    fi
    traces+=("$work/$w.trace")
done

# Step 2: the replay binary, built with the workspace's release settings.
cp scripts/replay/main.rs "$work/src/main.rs"
cp crates/sim/src/time.rs "$work/src/time.rs"
cp crates/sim/src/sched.rs "$work/src/change.rs"
echo "building the replay ($rev against the working tree)..." >&2
rustc --edition 2021 -C opt-level=3 -C codegen-units=1 -C debug-assertions=off \
    --cap-lints allow -o "$work/replay" "$work/src/main.rs"
echo "replaying, $reps reps" >&2
"$work/replay" "$reps" "${traces[@]}"
