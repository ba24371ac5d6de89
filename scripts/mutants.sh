#!/usr/bin/env bash
# The kill matrix: every mutant in mutants/*.patch is applied to one copy
# of the tree, built and tested there, and must make its kill tests fail.
#
#   scripts/mutants.sh [NAME...]     # default: every row
#
# A row is one file, mutants/NAME.patch: header lines that `git apply`
# ignores, then the `git diff -U1` of one edit:
#
#   # crate: contra-sim
#   # from: bd1f64a
#   # kill: -p contra-sim --lib a_flush_takes_the_tail_off_the_train
#   diff --git a/crates/sim/src/link.rs b/crates/sim/src/link.rs
#
# `crate` owns the edit and `from` is the commit that first checked it. A
# `kill` line (one or more) is `cargo test` arguments whose last word is
# the test-name filter; with the edit applied, every kill line of the row
# must fail.
#
# The working tree's files (tracked, plus untracked ones not ignored) are
# copied once into a temporary directory with one target directory for
# every build; the checkout itself is never written but for the report.
# Then, each step failing the run with exit 1 and the row or line named:
#   1. every row must apply exactly (`git apply --check -v`, where a hunk
#      "succeeded at ... (offset N lines)" counts as stale): a stale row
#      fails before anything builds;
#   2. every kill line must pass on the clean copy and select a test;
#   3. per row: apply, `cargo test --no-run` per kill line (a row that
#      does not compile is *unviable*), run each kill line (one that
#      passes *survived*, one that fails *killed*), revert.
#
# MUTANTS_REPORT.txt (repository root) holds the verdicts, which repeat
# byte for byte, and then the seconds each row took to build and test.
# Exit 0 when every row is killed, 1 otherwise, 2 on a usage error.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
report="$root/MUTANTS_REPORT.txt"

cd "$root"
rows=()
if [ $# -eq 0 ]; then
    for patch in mutants/*.patch; do
        [ -e "$patch" ] && rows+=("$(basename "$patch" .patch)")
    done
else
    for name; do
        if [ ! -f "mutants/$name.patch" ]; then
            echo "mutants.sh: no row mutants/$name.patch" >&2
            exit 2
        fi
        rows+=("$name")
    done
fi
if [ ${#rows[@]} -eq 0 ]; then
    echo "mutants.sh: no rows in mutants/" >&2
    exit 2
fi

# The values of header KEY in row NAME, one per line.
header() {
    sed -n "/^diff --git /q; s/^# $2: //p" "mutants/$1.patch"
}

declare -A crate from kills
for name in "${rows[@]}"; do
    crate[$name]=$(header "$name" crate)
    from[$name]=$(header "$name" from)
    kills[$name]=$(header "$name" kill)
    if [ -z "${crate[$name]}" ] || [ -z "${from[$name]}" ] || [ -z "${kills[$name]}" ]; then
        echo "mutants.sh: row $name needs '# crate:', '# from:' and '# kill:' lines" >&2
        exit 1
    fi
done

now() { date +%s%N; }
secs() { awk -v ns="$1" 'BEGIN { printf "%.1f", ns / 1e9 }'; }
start=$(now)

work=$(mktemp -d "${TMPDIR:-/tmp}/contra-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir "$tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [ -e "$file" ]; then printf '%s\0' "$file"; fi
    done |
    tar --null -T - -cf - | tar -C "$tree" -xf -
git -C "$tree" init -q
git -C "$tree" add -A
git -C "$tree" -c user.name=mutants -c user.email=mutants@localhost \
    -c commit.gpgsign=false commit -qm tree
export CARGO_TARGET_DIR="$work/target"

# Step 1: every row applies to the tree as it is, at the lines it names.
stale=0
for name in "${rows[@]}"; do
    if ! git -C "$tree" apply --check -v "$root/mutants/$name.patch" >"$work/apply.log" 2>&1; then
        echo "mutants.sh: row $name is stale: it no longer applies" >&2
        sed 's/^/    /' "$work/apply.log" >&2
        stale=1
    elif grep -q '(offset [-0-9]* lines\?)' "$work/apply.log"; then
        echo "mutants.sh: row $name is stale: its context moved" >&2
        grep 'offset' "$work/apply.log" | sed 's/^/    /' >&2
        stale=1
    fi
done
[ $stale -eq 0 ] || exit 1

# `cargo test` for kill LINE, output in LOG; with `--no-run` first, only
# the build (the filter, the last word, is dropped).
cargo_test() {
    local words
    read -ra words <<<"$2"
    if [ "$1" = --no-run ]; then
        unset 'words[-1]'
        (cd "$tree" && cargo test --offline -q --no-run "${words[@]}") >"$3" 2>&1
    else
        (cd "$tree" && cargo test --offline -q "${words[@]}") >"$3" 2>&1
    fi
}

show() {
    tail -n 25 "$1" | sed 's/^/    /' >&2
}

# Step 2: every kill line passes on the clean tree and selects a test.
clean_build=0
clean_test=0
mapfile -t lines < <(for name in "${rows[@]}"; do printf '%s\n' "${kills[$name]}"; done | sort -u)
for line in "${lines[@]}"; do
    t0=$(now)
    if ! cargo_test --no-run "$line" "$work/clean.log"; then
        echo "mutants.sh: the clean tree does not build for kill line '$line'" >&2
        show "$work/clean.log"
        exit 1
    fi
    t1=$(now)
    if ! cargo_test run "$line" "$work/clean.log"; then
        echo "mutants.sh: kill line '$line' fails on the clean tree" >&2
        show "$work/clean.log"
        exit 1
    fi
    t2=$(now)
    clean_build=$((clean_build + t1 - t0))
    clean_test=$((clean_test + t2 - t1))
    selected=$(sed -n 's/^test result: .* \([0-9][0-9]*\) passed;.*/\1/p' "$work/clean.log" |
        awk '{ n += $1 } END { print n + 0 }')
    if [ "$selected" -eq 0 ]; then
        echo "mutants.sh: kill line '$line' selects no test" >&2
        exit 1
    fi
done

# Step 3: the matrix.
verdicts="$work/verdicts"
timings="$work/timings"
: >"$verdicts"
: >"$timings"
declare -A tally=([killed]=0 [survived]=0 [unviable]=0)
# One verdict line: VERDICT for kill LINE of row $name.
verdict() {
    printf '%-44s %-18s %-8s %-9s %s\n' "$name" "${crate[$name]}" "${from[$name]}" "$1" "$2" >>"$verdicts"
}
i=0
for name in "${rows[@]}"; do
    i=$((i + 1))
    patch="$root/mutants/$name.patch"
    mapfile -t row_lines <<<"${kills[$name]}"
    git -C "$tree" apply "$patch"
    t0=$(now)
    built=1
    for line in "${row_lines[@]}"; do
        if ! cargo_test --no-run "$line" "$work/row.log"; then
            built=0
            break
        fi
    done
    t1=$(now)
    row=killed
    if [ $built -eq 0 ]; then
        row=unviable
        echo "mutants.sh: row $name does not compile" >&2
        show "$work/row.log"
        for line in "${row_lines[@]}"; do
            verdict unviable "$line"
        done
    else
        for line in "${row_lines[@]}"; do
            if cargo_test run "$line" "$work/row.log"; then
                row=survived
                echo "mutants.sh: row $name survived kill line '$line'" >&2
                verdict survived "$line"
            else
                verdict killed "$line"
            fi
        done
    fi
    t2=$(now)
    git -C "$tree" apply -R "$patch"
    if [ -n "$(git -C "$tree" status --porcelain --untracked-files=no)" ]; then
        echo "mutants.sh: reverting row $name left the copy changed" >&2
        exit 1
    fi
    tally[$row]=$((tally[$row] + 1))
    printf '%-44s %8s %8s\n' "$name" "$(secs $((t1 - t0)))" "$(secs $((t2 - t1)))" >>"$timings"
    echo "[$i/${#rows[@]}] $name: $row" >&2
done

{
    echo "# Kill matrix (scripts/mutants.sh): one line per mutant and kill line."
    echo "# A mutant is killed when every one of its kill lines fails."
    printf '%-44s %-18s %-8s %-9s %s\n' mutant crate from verdict "kill (cargo test ...)"
    cat "$verdicts"
    echo "${#rows[@]} mutants: ${tally[killed]} killed, ${tally[survived]} survived," \
        "${tally[unviable]} unviable"
    echo
    echo "# Seconds, which vary from run to run: build and test per mutant."
    printf '%-44s %8s %8s\n' mutant build_s test_s
    cat "$timings"
    printf '%-44s %8s %8s\n' "(clean tree, ${#lines[@]} kill lines)" "$(secs $clean_build)" "$(secs $clean_test)"
    echo "total wall $(secs $(($(now) - start))) s on $(nproc) cores"
} >"$report"
echo "mutants.sh: wrote $report" >&2
[ "${tally[killed]}" -eq ${#rows[@]} ]
