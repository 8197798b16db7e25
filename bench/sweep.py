"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 --seconds 20 --trace 0 --label NAME \
        > bench/baselines/BENCH_NAME.json

Runs ``bench/run.py`` once per (workload, seed), one after another, and
prints JSON with every value plus its median, quartiles and spread (the
distance between the quartiles as a share of the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    summary = {
        "label": args.label, "trace": args.trace, "seconds": args.seconds,
        "seeds": args.seeds, "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs", "workloads": {},
    }
    for workload in WORKLOADS:
        results = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, check=True)
            results.append(json.loads(done.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        metrics = results[0]["metrics"]
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                name: {"unit": metric["unit"],
                       **summarise([r["metrics"][name]["value"] for r in results])}
                for name, metric in metrics.items()
            },
        }
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
