"""All three workloads in one command, plus the determinism self-check.

    python3 perfbench/suite.py --seed 1 --seconds 5

For each workload this runs run.py untraced and prints every end-to-end
metric with its unit and the failed ratio; then runs it traced twice with
the same seed and once with the next seed. It exits 1 unless every run
passed every oracle and the two same-seed traced runs gave identical
per-item counts (`*.calls_per_item` and `cli.bytes_out_per_call`).
Runs one at a time, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600


def is_count(name: str) -> bool:
    return name.endswith(".calls_per_item") or name == "cli.bytes_out_per_call"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()

    problems = []
    for workload in workloads.WORKLOADS:
        result = run(workload, args.seed, args.seconds, 0)
        print(f"[{workload}] seed {args.seed}: {result['attempted']} calls")
        print(f"  {'failed_ratio':16s} {result['failed'] / result['attempted']:.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name:16s} {metric['value']:.6g} {metric['unit']}")
        traced = [run(workload, seed, args.seconds, 1)
                  for seed in (args.seed, args.seed, args.seed + 1)]
        for label, res in [("untraced", result)] + list(zip(("traced", "retraced", "next seed"), traced)):
            if not res["correct"]:
                problems.append(f"{workload}: {label} run failed {res['failed']} call(s)")
        first, second = ({k: v["value"] for k, v in t["metrics"].items() if is_count(k)}
                         for t in traced[:2])
        differing = sorted(k for k in first if first[k] != second[k])
        if differing:
            problems.append(f"{workload}: same-seed counts differ: {differing}")
        print(f"  determinism: {len(first)} per-item counts "
              f"{'differ' if differing else 'identical'} across two traced runs;"
              f" seed {args.seed + 1} correct={traced[2]['correct']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("suite " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
