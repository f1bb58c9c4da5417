"""Run the benchmark on several seeds and report each metric's quartile spread.

Usage: ``python3 perfbench/spread.py WORKLOAD [--seeds 1 2 3 ...] [--trace 0]``.
The spread is (Q3 − Q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them; with ``--trace 0`` it is
compared with the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name) if not args.trace else None
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                         ("  < bound" if spread <= bound else "  OVER BOUND"))
        print(f"{name:<28} median {statistics.median(vals):<12.6g} spread {spread:.3f}"
              + (f" (bound {bound})" if bound is not None else "") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
