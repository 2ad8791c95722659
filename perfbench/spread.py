"""Run the benchmark over several seeds and report medians and quartile spreads.

    python3 perfbench/spread.py --workloads cli_session pump_scan crystal_scan \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out FILE]

Runs one workload after another, one seed at a time, from the current
directory (the root of a checkout), with ``run_seconds`` from
``BENCHMARK.json``. For each end-to-end metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 − Q1)/median next to the metric's bound. ``--out`` keeps every
run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, "elapsed_s": elapsed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} ({elapsed:.0f} s): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        if args.trace:
            continue
        print(f"\n| {workload} | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} "
                  f"| {bounds[name]} |")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
