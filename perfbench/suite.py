#!/usr/bin/env python3
"""Write BENCHMARK.json, then run every workload once per seed and summarise.

    python3 perfbench/suite.py --seeds 1-10            # end-to-end metrics
    python3 perfbench/suite.py --seeds 1 --trace 1     # per-layer metrics

Each run is a separate ``run.py`` process, as a benchmark runner starts it.  The
summary gives, per workload and metric, the median over seeds and the
quartile spread ``(q3 - q1) / median`` next to a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, RUN_SECONDS, benchmark_spec
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def spread(values: list[float]) -> float:
    """Quartile distance over the median: (q3 - q1) / median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n",
                                         encoding="utf-8")
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for name in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            for metric, m in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(m["value"])
    if not args.trace:
        print("workload metric median spread bound/3 values")
        for name, metrics in values.items():
            for metric, vals in metrics.items():
                print(f"{name} {metric} {statistics.median(vals):.6g} {spread(vals):.4f} "
                      f"{END_TO_END[metric][2] / 3:.4f} {json.dumps(vals)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
