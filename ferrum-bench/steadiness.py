#!/usr/bin/env python3
"""Steadiness check for ferrum-bench.

    python3 ferrum-bench/steadiness.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json
ten times, with seeds 1 to 10, each for its run_seconds with tracing off.
For every end-to-end metric it prints and stores the median and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, beside the metric's
bound. The table is written to ferrum-bench/steadiness.json. Exits 1 when
a spread exceeds its bound or a run failed an operation.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    table = {"run_seconds": spec["run_seconds"], "runs": RUNS,
             "seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1], "workloads": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for i in range(RUNS):
            result = one_run(workload, FIRST_SEED + i, spec["run_seconds"])
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            rows[metric["name"]] = {"median": median, "spread": spread,
                                    "bound": metric["bound"],
                                    "values": series}
            within = spread <= metric["bound"]
            steady = steady and within
            print("%-14s %-26s median %12.6g  spread %.4f  bound %.2f%s" % (
                workload, metric["name"], median, spread, metric["bound"],
                "" if within else "  OVER"), flush=True)
        table["workloads"][workload] = {"failed": failed, "metrics": rows}
        steady = steady and failed == 0
    with open(os.path.join(HERE, "steadiness.json"), "w") as out_file:
        json.dump(table, out_file, indent=2)
        out_file.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
