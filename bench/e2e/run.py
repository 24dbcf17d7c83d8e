#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md).

Builds bench_e2e from the checkout's sources, runs one workload, and prints
the result as the last line of stdout:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Other modes:

    --all [--runs N] [--out FILE]  every workload, N seeds each
    --compare A B                  BENCHMARK.json bounds applied to B vs A;
                                   each a --all file or a glob of them
    --quick [--binary PATH]        one pass per workload in both modes;
                                   checks correctness and that the metric
                                   names match BENCHMARK.json both ways
"""

import argparse
import fcntl
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORKLOADS = ["compute_bound", "latency_bound", "registry_sweep", "resilient",
             "planner_zipf"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds bench_e2e under .bench_build/e2e; returns it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src: run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "bench_e2e")


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def invoke(binary, args):
    """Runs the bench; its stderr passes through, its last stdout line is
    parsed.  Returns (exit code, parsed JSON or None)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, last_json(proc.stdout)


def run_workload(binary, workload, seed, seconds, trace, timeline=None,
                 quick=False):
    """One workload, one seed.  Returns (exit code, result JSON or None)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if quick:
        args.append("--quick")
    if timeline:
        args += ["--timeline", timeline]
    return invoke(binary, args)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quick_check(binary):
    """One pass per workload in both modes: every op verified, and the
    emitted metric names equal BENCHMARK.json's, both ways."""
    bench = load_benchmark()
    want = {False: {m["name"] for m in bench["end_to_end"]},
            True: {m["name"] for m in bench["per_layer"]}}
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        print("workload names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_workload(binary, workload, 1, 1, trace,
                                        quick=True)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                print("FAIL %s: exit %d" % (label, code), file=sys.stderr)
                bad += 1
                continue
            got = set(result["metrics"])
            if got != want[trace]:
                print("FAIL %s: missing %s, unexpected %s" %
                      (label, sorted(want[trace] - got),
                       sorted(got - want[trace])), file=sys.stderr)
                bad += 1
            else:
                print("ok   %s" % label, file=sys.stderr)
    return 1 if bad else 0


def run_all(binary, args):
    runs = []
    code = 0
    timelines = []
    for i in range(args.runs):
        for workload in WORKLOADS:
            seed = args.seed + i
            timeline = None
            if args.timeline:
                timeline = "%s.%s.json" % (args.timeline, workload)
                timelines.append(timeline)
            rc, result = run_workload(binary, workload, seed, args.seconds,
                                      args.trace, timeline)
            code = code or rc or (1 if result is None else 0)
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "result": result})
    if args.timeline:
        events = []
        for path in timelines:
            with open(path) as f:
                events += json.load(f)["traceEvents"]
            os.remove(path)
        with open(args.timeline, "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    doc = {"runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    print(json.dumps(doc))
    return code


def compare(path_a, path_b):
    """Per (workload, metric): improved / unchanged / regressed / unresolved
    of B against A, under the BENCHMARK.json bounds.  Exact metrics (bound
    0, or a per-layer value that reads the same in every run of A) must be
    identical."""
    bench = load_benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]

    def values(pattern):
        out = {}
        for path in sorted(glob.glob(pattern)):
            with open(path) as f:
                doc = json.load(f)
            for run in doc["runs"]:
                if run["result"] is None:
                    continue
                for name, m in run["result"]["metrics"].items():
                    out.setdefault((run["workload"], name), []).append(
                        m["value"])
        return out

    a, b = values(path_a), values(path_b)
    worst = 0
    print("%-16s %-36s %14s %14s %8s %8s  %s" %
          ("workload", "metric", "median A", "median B", "change", "spread",
           "verdict"))
    for workload in WORKLOADS:
        for m in metrics:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            va, vb = a[key], b[key]
            ma, mb = statistics.median(va), statistics.median(vb)
            bound = m.get("bound")
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / abs(ma) if ma else 0.0
            spread = 0.0
            if len(va) >= 2 and ma:
                q = statistics.quantiles(va, n=4)
                spread = (q[2] - q[0]) / abs(ma)
            if bound == 0 or (bound is None and len(va) > 1 and
                              len(set(va)) == 1):
                verdict = "unchanged" if set(va) == set(vb) else "regressed"
            elif bound is None:
                verdict = "(per-layer)"
            elif spread > bound:
                better_all = all(sign * (x - y) < 0 for x in vb for y in va)
                verdict = "improved" if better_all else "unresolved"
            elif change > bound:
                verdict = "regressed"
            elif -change > max(spread, bound / 3):
                wins = sum(1 for x, y in zip(vb, va) if sign * (x - y) < 0)
                verdict = "improved" if wins >= 0.9 * min(len(va), len(vb)) \
                    else "unchanged"
            else:
                verdict = "unchanged"
            if verdict == "regressed":
                worst = 1
            print("%-16s %-36s %14.6g %14.6g %+7.1f%% %7.1f%%  %s" %
                  (workload, m["name"], ma, mb, -100 * change, 100 * spread,
                   verdict))
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--timeline", help="Chrome trace-event JSON of --trace 1")
    p.add_argument("--all", action="store_true")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--binary", help="use this bench_e2e instead of building")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = args.binary or build()
    if args.quick:
        return quick_check(binary)
    if args.all:
        return run_all(binary, args)
    if not args.workload:
        fail("--workload, --all, --quick or --compare is required")
    code, result = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace, args.timeline)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
