#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads analyze-default,prepare-dbas --seeds 1-10 --out a.json
    python3 perfbench/spread.py --compare a.json b.json

Runs are sequential, one process at a time. The spread of a metric is the
distance between its first and third quartile (``statistics.quantiles``,
n=4) as a share of its median; it is compared with the metric's bound from
BENCHMARK.json. ``--compare`` reports, per workload and metric, how much
worse the second set's median is than the first's, against the same bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace, seconds):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(l[7:]) for l in lines if l.startswith("record "))
    return json.loads(lines[-1]), record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def measure(args):
    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    seconds = args.seconds or SPEC["run_seconds"]
    out = {"trace": args.trace, "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, record = run_once(workload, seed, args.trace, seconds)
            runs.append({"seed": seed, "result": result, "record": record})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"contended={record['contended']} load={record['loadavg_before'][0]}",
                  flush=True)
        out["workloads"][workload] = runs
        if args.trace or len(runs) < 2:
            continue
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            median, share = spread(values)
            verdict = "ok" if share < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<14} median {median:<12.6g} spread {share:7.2%} "
                  f"(bound {m['bound']:.0%}, target < {m['bound'] / 3:.2%}) {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def compare(first, second):
    a, b = (json.loads(Path(p).read_text()) for p in (first, second))
    ok = True
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload)
        if not runs_b:
            continue
        print(workload)
        for m in SPEC["end_to_end"]:
            va = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in runs_a)
            vb = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in runs_b)
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            good = worse <= m["bound"]
            ok &= good
            print(f"  {m['name']:<14} {va:<12.6g} -> {vb:<12.6g} worse by {worse:7.2%} "
                  f"(bound {m['bound']:.0%}) {'ok' if good else 'WORSE'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, help="defaults to run_seconds")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
