#!/bin/sh
# The CHANGES.md A/B recipe: two contra_benchmark binaries, each built
# once, run in alternating pairs (odd pairs parent first), pair i at
# seed i, `--trace 0`; per workload and end-to-end metric it prints
# every run, each side's median [quartiles], the ratio of the medians
# and the pairs the change won.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN [--pairs N] [--seconds S] [--workload W]...
#
# Defaults: 10 pairs, 20 s per run (BENCHMARK.json's run_seconds), all
# four workloads. Exit 1 if a run fails or reports a failed operation.
# The benchmark refuses to run under any CONTRA_* variable, so the runs
# get an environment without them.
exec python3 - "$@" <<'EOF'
import argparse, json, os, statistics, subprocess, sys, tempfile

METRICS = ["setup_s", "run_s", "allocs_per_run", "switch_state_kb"]  # all lower-is-better


def parse():
    ap = argparse.ArgumentParser(prog="ab.sh")
    ap.add_argument("parent", metavar="PARENT_BIN")
    ap.add_argument("change", metavar="CHANGE_BIN")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--workload", action="append", dest="workloads",
                    default=None, help="repeatable; default all four")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bins = {"parent": args.parent, "change": args.change}
    workloads = args.workloads or ["dc_tcp", "wan_tcp", "fabric_probe", "policy_ladder"]
    return bins, args.pairs, args.seconds, workloads


def run(binary, workload, seed, seconds, out, env):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds,
           "--trace", "0", "--out", out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
        return {m: line["metrics"][m]["value"] for m in METRICS}, line["failed"], done.returncode
    except (IndexError, KeyError, ValueError):
        sys.exit(f"ab.sh: no driver line from {' '.join(cmd)} (exit {done.returncode})")


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return med, f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    bins, pairs, seconds, workloads = parse()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONTRA_")}
    bad = False
    print(f"parent {bins['parent']}  change {bins['change']}  pairs {pairs}  "
          f"seconds {seconds}  seeds 1..{pairs}  nproc {os.cpu_count()}")
    with tempfile.TemporaryDirectory() as out:
        for w in workloads:
            runs = {"parent": [], "change": []}
            failed = {"parent": 0, "change": 0}
            for pair in range(1, pairs + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    values, ops_failed, code = run(bins[side], w, pair, seconds, out, env)
                    runs[side].append(values)
                    failed[side] += ops_failed
                    bad |= code != 0
            print(f"\n{w}  (ops_failed parent {failed['parent']}, change {failed['change']})")
            for m in METRICS:
                p = [r[m] for r in runs["parent"]]
                c = [r[m] for r in runs["change"]]
                (pm, ptxt), (cm, ctxt) = summary(p), summary(c)
                won = sum(b < a for a, b in zip(p, c))
                ties = sum(b == a for a, b in zip(p, c))
                print(f"  {m}: {ptxt} -> {ctxt}  ratio {cm / pm:.3f}  "
                      f"won {won}/{pairs}  ties {ties}")
                print("    runs: " + ", ".join(f"{a:.6g}->{b:.6g}" for a, b in zip(p, c)))
    sys.exit(1 if bad else 0)


main()
EOF
