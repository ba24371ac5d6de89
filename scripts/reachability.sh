#!/usr/bin/env bash
# The reachability census: the library functions that no artifact links.
#
#   scripts/reachability.sh
#
# Nothing is executed. The script builds every artifact in debug, each
# package into its own target directory under target/reachability/: the
# workspace's binaries (contra, contra_fuzz) and examples, and
# contra_benchmark, a package of its own. A library function is a text
# symbol of a libcontra* rlib whose demangled name (`nm -C
# --defined-only`, the hash stripped) lies in a contra crate,
# `contra_x::…` or `<contra_x::… as Trait>::…`; the
# `assert_fields_are_eq` that `derive(Eq)` generates is left out. Names
# are keyed so that a toolchain release does not change them: a
# closure (`::{{closure}}`) counts as its enclosing function, and a
# trait is named without its module path (`<X as Error>::source`, not
# `<X as core::error::Error>::source`), as is every path into core,
# alloc or std. The census is the library functions minus the union of
# the artifacts' symbols, plus, marked `example`, the ones that only an
# examples/ program links (the same subtraction without the examples).
#
# REACHABILITY.txt (repository root) gives every entry of the census one
# line, `(CLASS) SYMBOL — REASON`, sorted by symbol:
#   (a) reached by a test: an error path, an accessor or a test-side
#       constructor;
#   (b) reached only through an examples/ program.
#
# Prints the counts per crate, the limits of a link-time census and the
# check. Exit 1 when a build fails, on an entry the file does not list,
# a listed symbol the census does not find (stale), a class other than
# (a) or (b) or one that disagrees with the `example` mark, or a file
# out of order; 2 on a usage error.
set -euo pipefail
export LC_ALL=C

if [ $# -ne 0 ]; then
    sed -n '4p' "$0" | sed 's/^#   /usage: /' >&2
    exit 2
fi
for tool in cargo jq nm; do
    command -v "$tool" >/dev/null || {
        echo "reachability.sh: needs $tool" >&2
        exit 1
    }
done

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/target/reachability"
listed_file=REACHABILITY.txt
mkdir -p "$out"
work=$(mktemp -d "${TMPDIR:-/tmp}/contra-reachability.XXXXXX")
trap 'rm -rf "$work"' EXIT

# Builds one package's artifacts into $out/$1 and appends what cargo
# produced to $work/artifacts: `rlib PATH`, `bin PATH` or `example PATH`.
build() {
    local dir=$1
    shift
    echo "building $dir (debug)..." >&2
    CARGO_TARGET_DIR="$out/$dir" cargo build --offline -q \
        --message-format=json-render-diagnostics "$@" |
        jq -r 'select(.reason == "compiler-artifact")
            | if .executable then "\(.target.kind[0]) \(.executable)"
              elif (.target.name | startswith("contra"))
                   and (.target.kind | index("lib")) then
                (.filenames[] | select(endswith(".rlib")) | "rlib \(.)")
              else empty end' >>"$work/artifacts"
}
build workspace --workspace --bins --examples
build benchmark --manifest-path contra_benchmark/Cargo.toml

# Demangled text symbols, hash stripped, keyed as above, one per line,
# sorted. An rlib's metadata member is not an object file, which nm
# reports and skips.
symbols() {
    { nm -C --defined-only "$@" 2>/dev/null || true; } |
        sed -n 's/^[0-9a-f]* [tT] //p' |
        sed -e 's/::h[0-9a-f]\{16\}$//' -e 's/\(::{{closure}}\)*$//' \
            -e 's/ as \([a-z_][a-z0-9_]*::\)*/ as /g' \
            -e 's/\<\(core\|alloc\|std\)::\([a-z_][a-z0-9_]*::\)*//g' | sort -u
}
paths() { sed -n "s/^$1 //p" "$work/artifacts" | sort -u; }
# The library is the workspace's; the benchmark's build of the same
# crates only links them.
mapfile -t rlibs < <(paths rlib | grep "^$out/workspace/")
mapfile -t bins < <(paths bin)
mapfile -t examples < <(paths example)
if [ ${#rlibs[@]} -eq 0 ] || [ ${#bins[@]} -eq 0 ] || [ ${#examples[@]} -eq 0 ]; then
    echo "reachability.sh: the builds reported no rlib, binary or example" >&2
    exit 1
fi
symbols "${rlibs[@]}" | grep -E '^<?contra[a-z0-9_]*::' |
    grep -v '::assert_fields_are_eq$' >"$work/library" || true
symbols "${bins[@]}" >"$work/binaries"
symbols "${bins[@]}" "${examples[@]}" >"$work/artifacts_all"
comm -23 "$work/library" "$work/artifacts_all" >"$work/unlinked"
comm -23 "$work/library" "$work/binaries" >"$work/census"
comm -13 "$work/unlinked" "$work/census" >"$work/example_only"

names() { for p; do basename "$p"; done | sort | tr '\n' ' ' | sed 's/ $//'; }
echo "reachability census: link-time, debug builds"
echo "binaries: $(names "${bins[@]}")"
echo "examples: $(names "${examples[@]}")"
echo "library functions: $(wc -l <"$work/library") in ${#rlibs[@]} rlibs"
echo "census: $(wc -l <"$work/census") entries;" \
    "$(wc -l <"$work/unlinked") linked by no artifact," \
    "$(wc -l <"$work/example_only") only by an example"
echo "per crate (census / example only / library functions):"
crate_of() { sed 's/^<//; s/::.*//' "$1" | sort | uniq -c; }
crate_of "$work/library" | while read -r total crate; do
    in_census=$(grep -cE "^<?$crate::" "$work/census" || true)
    only_example=$(grep -cE "^<?$crate::" "$work/example_only" || true)
    printf '  %-20s %3d / %3d / %4d\n' "$crate" "$in_census" "$only_example" "$total"
done
cat <<'EOF'
limits:
  - a generic function never instantiated, or an #[inline] one never
    called, has a symbol on neither side: such dead code goes unseen;
  - linked is not executed: an artifact may link a function that never
    runs. Only an instrumented run can tell those apart.
EOF

# The check. Listed lines are `(CLASS) SYMBOL — REASON`.
status=0
fail() {
    echo "$listed_file: $1"
    sed 's/^/    /' "$2"
    status=1
}
if [ ! -f "$listed_file" ]; then
    echo "$listed_file: missing" >&2
    exit 1
fi
grep -v '^#' "$listed_file" | grep -v '^$' >"$work/lines" || true
awk '{
        at = index($0, " — ")
        if (at == 0) { print "line without \" — REASON\": " $0 > "/dev/stderr"; bad = 1; next }
        print substr($0, 5, at - 5) "\t" substr($0, 1, 3)
    } END { exit bad }' "$work/lines" >"$work/listed" ||
    fail "malformed lines (above)" /dev/null
cut -f1 "$work/listed" >"$work/listed_symbols"
if ! sort -c -u "$work/listed_symbols" 2>/dev/null; then
    sort "$work/listed_symbols" | uniq -d >"$work/duplicates"
    fail "not sorted by symbol, or a symbol listed twice (sort -u)" "$work/duplicates"
fi
sort -u "$work/listed_symbols" -o "$work/listed_symbols"
comm -23 "$work/census" "$work/listed_symbols" >"$work/unlisted"
comm -13 "$work/census" "$work/listed_symbols" >"$work/stale"
[ -s "$work/unlisted" ] && fail "unlisted (add each with its class and reason):" "$work/unlisted"
[ -s "$work/stale" ] && fail "stale (the census no longer finds them):" "$work/stale"
awk -F'\t' '$2 != "(a)" && $2 != "(b)" { print $2 " " $1 }' "$work/listed" >"$work/unclassified"
[ -s "$work/unclassified" ] && fail "not class (a) or (b):" "$work/unclassified"
awk -F'\t' 'NR == FNR { only[$1] = 1; next }
    ($1 in only) != ($2 == "(b)") { print $2 " " $1 }' \
    "$work/example_only" "$work/listed" >"$work/misclassified"
[ -s "$work/misclassified" ] &&
    fail "class (b) is exactly the entries only an example links:" "$work/misclassified"
if [ $status -eq 0 ]; then
    echo "$listed_file: $(wc -l <"$work/listed") entries, every one listed and classified:" \
        "$(grep -c '(a)$' "$work/listed" || true) (a), $(grep -c '(b)$' "$work/listed" || true) (b)"
fi
exit $status
