#!/usr/bin/env bash
# The layer replays: judge a change to one layer of the simulator —
# crates/sim/src/sched.rs or crates/sim/src/link.rs — inside one
# process, where the host's drift between processes cancels.
#
#   scripts/replay.sh PARENT_REV [--layer sched|link] [--reps N] [--workload W]... [--quick]
#
# 1. Records. The working tree's files are copied into a temporary
#    directory and both recorder patches are applied there (they touch
#    disjoint files; the checkout is never written). That copy's
#    contra_benchmark is built once and runs one rep of each workload
#    (`--rounds 1 --trace 0`, seed 1, `--quick` with --quick), which
#    records both traces: scripts/replay/record.patch writes every push
#    and pop of the first wheel a process builds,
#    scripts/replay/record_link.patch every operation the first
#    simulator makes on a link (accept, pop_train, settle, utilization
#    read, down, up).
# 2. Replays, per layer (both without --layer, scheduler first). The
#    layer's replay (scripts/replay/main.rs or link.rs, with bench.rs) is
#    compiled with PARENT_REV's file (`git show`) and the working tree's
#    as two modules, over the working tree's time.rs (and, for links,
#    the shim scripts/replay/packet.rs), and replays each trace N times
#    through both plus the parent once more (the A/A floor), in rotating
#    order. It prints each side's median time and allocations per
#    replay, the median paired ratio change / parent [IQR] and the A/A
#    ratio, and fails if a result ever differs from the recording. The
#    same replay then runs once more pinned to CPU 1 (`taskset -c 1`,
#    the replay process only), where taskset can pin.
#
# Defaults: both layers, 41 reps; fabric_probe, dc_tcp and wan_tcp. Full
# scheduler traces hold 2-5 M operations (16 bytes each), link traces
# 1-3 M (32 bytes each); on 2 vCPUs one rep of all three traces takes
# under a second, the recorder's release build ~35 s.
# Exit 1 if a step fails or a result differs, 2 on a usage error.
set -euo pipefail
export LC_ALL=C

usage() {
    sed -n '6p' "$0" | sed 's/^#   /usage: /' >&2
    exit 2
}

root=$(cd "$(dirname "$0")/.." && pwd)
[ $# -ge 1 ] || usage
rev=$1
shift
reps=41
layers=(sched link)
quick=()
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
    --layer)
        [ $# -ge 2 ] && [[ $2 =~ ^(sched|link)$ ]] || usage
        layers=("$2")
        shift 2
        ;;
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
            echo "replay.sh: no trace for workload '$2'" >&2
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
file_of() { case $1 in sched) echo sched.rs ;; link) echo link.rs ;; esac; }
for layer in "${layers[@]}"; do
    file=$(file_of "$layer")
    if ! git show "$rev:crates/sim/src/$file" >"$work/parent_$file"; then
        echo "replay.sh: no crates/sim/src/$file at '$rev'" >&2
        exit 2
    fi
done

# Step 1: the recording copy, with both recorders.
tree="$work/tree"
mkdir "$tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [ -e "$file" ]; then printf '%s\0' "$file"; fi
    done |
    tar --null -T - -cf - | tar -C "$tree" -xf -
for patch in record.patch record_link.patch; do
    if ! git -C "$tree" apply "scripts/replay/$patch" 2>"$work/apply.log"; then
        echo "replay.sh: scripts/replay/$patch no longer applies to the working tree" >&2
        sed 's/^/    /' "$work/apply.log" >&2
        exit 1
    fi
done
echo "building the recorder..." >&2
CARGO_TARGET_DIR="$work/target" cargo build --release --offline -q \
    --manifest-path "$tree/contra_benchmark/Cargo.toml"
# The benchmark refuses to run under any CONTRA_* variable.
unset_contra=()
while IFS= read -r var; do unset_contra+=(-u "$var"); done < <(env | sed -n 's/^\(CONTRA_[A-Za-z0-9_]*\)=.*/\1/p')
mkdir "$work/sched" "$work/link"
for w in "${workloads[@]}"; do
    echo "recording $w..." >&2
    env "${unset_contra[@]}" SCHED_TRACE_OUT="$work/sched/$w.trace" LINK_TRACE_OUT="$work/link/$w.trace" \
        "$work/target/release/contra_benchmark" --workload "$w" --rounds 1 --trace 0 \
        "${quick[@]}" --out "$work/bench" >"$work/bench.log"
    for layer in sched link; do
        if [ ! -s "$work/$layer/$w.trace" ]; then
            echo "replay.sh: the $w run wrote no $layer trace" >&2
            exit 1
        fi
    done
done

# Step 2, per layer: the replay binary, built with the workspace's
# release settings.
for layer in "${layers[@]}"; do
    file=$(file_of "$layer")
    main=$([ "$layer" = sched ] && echo main.rs || echo link.rs)
    src="$work/src_$layer"
    mkdir "$src"
    cp "$work/parent_$file" "$src/parent.rs"
    cp "scripts/replay/$main" "$src/main.rs"
    cp scripts/replay/bench.rs scripts/replay/packet.rs "$src/"
    cp crates/sim/src/time.rs "$src/time.rs"
    cp "crates/sim/src/$file" "$src/change.rs"
    # A link.rs from before set_down drained the train fails through the
    # adapter for its API.
    cfg=()
    if grep -q 'fn detach_train' "$src/parent.rs"; then cfg=(--cfg parent_detach_train); fi
    echo "building the $layer replay ($rev against the working tree)..." >&2
    rustc --edition 2021 -C opt-level=3 -C codegen-units=1 -C debug-assertions=off \
        --cap-lints allow "${cfg[@]}" -o "$work/replay_$layer" "$src/main.rs"
    traces=()
    for w in "${workloads[@]}"; do traces+=("$work/$layer/$w.trace"); done
    echo "$layer (crates/sim/src/$file):"
    echo "replaying $file, $reps reps" >&2
    "$work/replay_$layer" "$reps" "${traces[@]}"
    if taskset -c 1 true 2>/dev/null; then
        echo "pinned to CPU 1 (taskset -c 1):"
        taskset -c 1 "$work/replay_$layer" "$reps" "${traces[@]}" | sed 's/^/  /'
    fi
done
