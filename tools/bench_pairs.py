#!/usr/bin/env python3
"""Paired A/B runs of bench_e2e workloads.

Runs N pairs: in each, the PARENT and the CHANGE bench_e2e run the same
workload with the same seed, one right after the other, and the side that
runs first alternates from pair to pair.  Drift common to both runs of a
pair cancels in their ratio, so every end-to-end metric of BENCHMARK.json is
reported as the per-pair ratio change/parent with its median and quartiles.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload compute_bound [MORE ...] --pairs 10 --seconds 20 \\
        [--aa] [--out FILE]

Each DIR is a source checkout; its own bench/e2e/run.py builds its
bench_e2e (into DIR/.bench_build/e2e).  The k-th pair runs both sides with
seed k.  Each workload gets its own N pairs.  --aa adds an A/A
set, the parent against itself with the same pairing, interleaved with the
A/B pairs; its ratio spread is the smallest change the method can resolve on
this host, and the output states it per workload ("aa_spread").

Steal time (the `cpu` line of /proc/stat) is read around every run.  A pair
in which either run lost more than 5% of its CPU time to steal is
flagged and left out of "summary"; "summary_all_pairs" counts every pair.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
# A run that lost more than this share of its CPU time to steal flags its pair.
STEAL_LIMIT = 0.05
# Pair i (counted from 0) runs both sides with seed BASE_SEED + i.
BASE_SEED = 1


def fail(msg):
    print("bench_pairs.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_binary(path):
    """The checkout's bench_e2e, built by the checkout's own run.py."""
    run_py = os.path.join(path, "bench", "e2e", "run.py")
    if not os.path.isfile(run_py):
        fail("%s has no bench/e2e/run.py" % path)
    spec = importlib.util.spec_from_file_location(
        "run_%d" % abs(hash(os.path.abspath(path))), run_py)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build()


def describe(path):
    """The commit a checkout is at (+ "-dirty" with local changes); paths
    are not recorded, so the output does not depend on where it ran."""
    try:
        head = subprocess.run(["git", "-C", path, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", path, "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "checkout"
    return head + ("-dirty" if dirty else "")


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(v) for v in fields[1:9]]  # user .. steal
    return ticks[7], sum(ticks)


def run_once(binary, workload, seed, seconds):
    before = cpu_times()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=RUN_TIMEOUT_S)
    after = cpu_times()
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return {"exit": proc.returncode, "steal_frac": steal,
            "correct": bool(result and result.get("correct")),
            "attempted": result.get("attempted") if result else None,
            "failed": result.get("failed") if result else None,
            "metrics": {k: v["value"]
                        for k, v in (result or {}).get("metrics", {}).items()}}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """Per metric over the given pairs: the change/parent ratio's
    quartiles, how many pairs the change won, and the median gain measured
    in units of the parent's own interquartile range."""
    out = {"pairs": len(pairs)}
    for m in metrics:
        name = m["name"]
        rows = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs
                if name in p["parent"]["metrics"]
                and name in p["change"]["metrics"]]
        if not rows:
            continue
        sign = 1 if m["better"] == "higher" else -1
        ratios = [c / a if a else (1.0 if c == a else float("inf"))
                  for a, c in rows]
        wins = sum(1 for a, c in rows if sign * (c - a) > 0)
        q1, med, q3 = quartiles(ratios)
        pq1, pmed, pq3 = quartiles([a for a, _ in rows])
        cmed = statistics.median([c for _, c in rows])
        iqr = pq3 - pq1
        entry = {"better": m["better"], "ratio_median": med, "ratio_q1": q1,
                 "ratio_q3": q3, "wins": wins, "of": len(rows),
                 "parent_median": pmed, "change_median": cmed,
                 "parent_iqr": iqr}
        if iqr > 0:
            entry["gain_over_parent_iqr"] = sign * (cmed - pmed) / iqr
        out[name] = entry
    return out


def run_pairs(sets, workload, args):
    """N pairs of every set (name -> (parent binary, change binary)),
    interleaved set by set within each pair index."""
    pairs = {name: [] for name in sets}
    for i in range(args.pairs):
        seed = BASE_SEED + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name, binaries in sets.items():
            runs = {}
            for side in order:
                binary = binaries[0] if side == "parent" else binaries[1]
                runs[side] = run_once(binary, workload, seed, args.seconds)
            steals = [r["steal_frac"] for r in runs.values()
                      if r["steal_frac"] is not None]
            flagged = (any(not r["correct"] or r["exit"] != 0
                           for r in runs.values())
                       or any(s > STEAL_LIMIT for s in steals))
            pairs[name].append({"seed": seed, "first": order[0],
                                "flagged": flagged, "parent": runs["parent"],
                                "change": runs["change"]})
            print("%s %s pair %d seed %d first=%s ops_per_s change %s parent "
                  "%s%s" % (workload, name, i + 1, seed, order[0],
                            runs["change"]["metrics"].get("ops_per_s"),
                            runs["parent"]["metrics"].get("ops_per_s"),
                            " FLAGGED" if flagged else ""), file=sys.stderr)
    return pairs


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True, nargs="+",
                   help="one or more workloads, each run as its own pair set")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--aa", action="store_true",
                   help="also run an A/A set: parent against parent")
    p.add_argument("--out", help="write the JSON document here too")
    args = p.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")
    for path in (args.parent, args.change):
        if not os.path.isdir(path):
            fail("%s is not a checkout" % path)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent = build_binary(args.parent)
    change = build_binary(args.change)
    sets = {"ab": (parent, change)}
    if args.aa:
        sets["aa"] = (parent, parent)

    doc = {"seconds": args.seconds, "pairs": args.pairs,
           "steal_limit": STEAL_LIMIT,
           "parent": describe(args.parent), "change": describe(args.change),
           "workloads": {}}
    for workload in args.workload:
        pairs = run_pairs(sets, workload, args)
        entry = {name: {"summary": summarize(
                            [p for p in pairs[name] if not p["flagged"]],
                            metrics),
                        "summary_all_pairs": summarize(pairs[name], metrics),
                        "pairs": pairs[name]} for name in sets}
        aa = entry.get("aa", {}).get("summary", {}).get("ops_per_s")
        if aa:
            entry["aa_spread"] = (
                "A/A ops_per_s ratio: median %.3f, quartiles %.3f-%.3f over "
                "%d pairs; a claimed change must move the A/B ratio well "
                "outside this band" % (aa["ratio_median"], aa["ratio_q1"],
                                       aa["ratio_q3"], aa["of"]))
        doc["workloads"][workload] = entry
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
