#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median) against
its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload paper-churn --seeds 1-10 [--out DIR]

Each run's full output is kept under DIR (default perfbench-out/) as
<workload>-<seed>.txt. Exits 1 if any run is incorrect or any spread
(other than setup_s, which is only compared between sets) exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="perfbench-out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(args.out, exist_ok=True)
    values = {}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        path = os.path.join(args.out, "%s-%d.txt" % (args.workload, seed))
        with open(path, "w") as f:
            f.write(run.stderr + run.stdout)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if run.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed or incorrect (see %s)" % (seed, path))
            ok = False
            continue
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.4g" % kv for kv in sorted(row.items()))), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for metric in bench["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            continue
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med
        verdict = "ok"
        if spread > metric["bound"] and metric["name"] != "setup_s":
            verdict = "TOO WIDE"
            ok = False
        elif spread > metric["bound"] / 3:
            verdict = "above a third of the bound"
        print("%-12s median %.6g %s  spread %.3f (bound %.2f) %s" % (
            metric["name"], med, metric["unit"], spread, metric["bound"],
            verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
