#!/usr/bin/env python3
"""Steadiness study for the REX benchmark.

Runs every workload of BENCHMARK.json many times in separate processes,
interleaved between workloads (round r runs each workload once, with seed
1000 + r, for BENCHMARK.json's run_seconds), and reports for each end-to-end
metric, and for the raw times the binary prints on standard error:

  - the spread of all runs: (Q3 - Q1) / median, as Python's
    statistics.quantiles(values, n=4) gives the quartiles;
  - the same split the way a benchmark check takes it: consecutive sets of
    ten runs, each set's spread (the largest is shown), and the largest
    disagreement between the medians of two sets, (worse - better) /
    better, over every pair of sets taken at different times.

The bound of each metric in BENCHMARK.json is set from these numbers; the
README in this directory records them.

Run from the root of a checkout:

    python3 perfbench/study.py --rounds 30        # about an hour
    python3 perfbench/study.py --analyze .bench_build/perfbench/study.jsonl

Results are appended to .bench_build/perfbench/study.jsonl as they come,
one JSON object per run, so an interrupted study can still be analysed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(ROOT, ".bench_build", "perfbench", "study.jsonl")
SEED_BASE = 1000
# The binary's raw medians on standard error, kept beside the metrics to
# show how far the host moves them.
RAW = re.compile(r"raw medians: converge (\S+) s, crash (\S+) s, cpu (\S+) s, "
                 r"update p50 (\S+) ms, p90 (\S+) ms, reference (\S+) ms")
RAW_NAMES = ("raw.converge_s", "raw.crash_converge_s", "raw.cpu_s",
             "raw.update_p50_ms", "raw.update_p90_ms", "raw.reference_ms")


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        sys.exit("study: run from the root of a checkout (no BENCHMARK.json)")
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("study: %s seed %d exited with %d"
                 % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = RAW.search(proc.stderr)
    if raw:
        result["raw"] = dict(zip(RAW_NAMES, map(float, raw.groups())))
    result.update(workload=workload, seed=seed, started=start,
                  wall_s=time.time() - start)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def disagreement(a, b, lower_is_better=True):
    ma, mb = statistics.median(a), statistics.median(b)
    worse, better = (max(ma, mb), min(ma, mb)) if lower_is_better else \
        (min(ma, mb), max(ma, mb))
    return abs(worse - better) / better


def analyze(path, bench, set_size=10):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("%-18s %-16s %4s %10s %7s %9s %9s %6s" % (
        "workload", "metric", "runs", "median", "spread", "set_sprd",
        "set_disag", "bound"))
    for w in [x["name"] for x in bench["workloads"]]:
        mine = sorted((r for r in runs if r["workload"] == w),
                      key=lambda r: r["started"])
        if len(mine) < 4:
            continue
        bad = [r for r in mine if not r["correct"] or r["failed"]]
        if bad:
            print("%s: %d run(s) incorrect or with failed operations"
                  % (w, len(bad)))
        names = list(better)
        if all("raw" in r for r in mine):
            names += RAW_NAMES
        for name in names:
            values = [r["metrics"][name]["value"] if name in better
                      else r["raw"][name] for r in mine]
            low = better.get(name, "lower") == "lower"
            sets = [values[i:i + set_size]
                    for i in range(0, len(values) - set_size + 1, set_size)]
            set_spread = max((spread(x) for x in sets), default=float("nan"))
            set_disagreement = max(
                (disagreement(a, b, low) for i, a in enumerate(sets)
                 for b in sets[i + 1:]), default=float("nan"))
            print("%-18s %-16s %4d %10.4g %7.3f %9.3f %9.3f %6.2f" % (
                w, name, len(values), statistics.median(values),
                spread(values), set_spread, set_disagreement,
                bounds.get(name, float("nan"))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--analyze", metavar="JSONL",
                        help="only analyse an earlier study's results")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.analyze:
        analyze(args.analyze, bench)
        return
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("study: no REX source tree (src/) next to perfbench/")
    seconds = bench["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    workloads = [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for r in range(args.rounds):
            for w in workloads:
                result = run_once(w, SEED_BASE + r, seconds)
                out.write(json.dumps(result) + "\n")
                out.flush()
                print("round %d %s: %s" % (r, w, {
                    k: round(v["value"], 4)
                    for k, v in result["metrics"].items()}), flush=True)
    analyze(args.out, bench)


if __name__ == "__main__":
    main()
