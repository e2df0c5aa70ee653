#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs each workload several times with different seeds and prints, for
every end-to-end metric, the median, the quartiles and the spread
(third minus first quartile, over the median) against the metric's
bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads solve_cold,slide_daemon]
                                [--first-seed 1] [--seconds N]

The table and every run's result go to perfbench/results/steady-*.json
as well. Exits 1 when a spread other than setup_s exceeds its bound
or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    steady = True
    for workload in opts.workloads.split(","):
        runs = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            t = time.time()
            runs.append(run_once(workload, seed, opts.seconds))
            print(f"{workload} seed {seed}: {time.time() - t:.1f} s wall",
                  file=sys.stderr)
        print(f"\n{workload} ({opts.runs} runs, seeds {opts.first_seed}.."
              f"{opts.first_seed + opts.runs - 1})")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= bound / 3 else (
                "within" if spread <= bound else "OVER")
            if flag == "OVER" and name != "setup_s":
                steady = False
            print(f"  {name:<16}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.4f}{bound:>7.2f}  {flag}")
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound}
        report[workload] = rows
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwritten {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
