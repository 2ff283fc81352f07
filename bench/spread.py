"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 bench/spread.py --seeds 10 [--first-seed 1] [--workload NAME ...]

It runs ``bench/run.py`` once per seed and workload, taking the workloads
in turn for each seed, so that every workload's runs spread over the whole
session and a slow spell of a shared machine does not fall on one
workload alone. It prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
All results go to ``.bench_work/spread-<first seed>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            results[workload].append(run_once(workload, seed, spec["run_seconds"]))
    for workload, runs in results.items():
        fails = [(r["failed"], r["attempted"]) for r in runs]
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed/attempted={fails}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(
                f"  {metric['name']:<12} median {median:.6g} {metric['unit']}"
                f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
                f"  bound {metric['bound']}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}"
            )

    os.makedirs(".bench_work", exist_ok=True)
    path = os.path.join(".bench_work", f"spread-{args.first_seed}-{args.seeds}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
