"""One set-up sample, run in a fresh interpreter by run.py.

Times, from this script's first line, the import of rindler.cli (numpy
included), the generation of the workload's first input cycle and its
warm-up calls, and prints the seconds as its last line.

    python3 perfbench/probe.py --workload sweep --seed 1 --out-dir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    package = workloads.load_program()
    workloads.prepare(package, args.workload, args.seed, args.out_dir)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
