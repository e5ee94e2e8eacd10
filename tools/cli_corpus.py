"""Byte-identity check for the `rindler` command line.

Runs a fixed, seeded corpus of argv through `rindler.cli.main` in process
and records, for every run, the exit code, stdout, stderr and the bytes of
the `--out` file. Every argv that succeeds is run twice: once to stdout and
once with `--out`. Dump the corpus on two source trees and compare:

    python tools/cli_corpus.py dump before.jsonl --src /path/to/old/src
    python tools/cli_corpus.py dump after.jsonl
    python tools/cli_corpus.py compare before.jsonl after.jsonl

`compare` lists every run whose record differs and exits 1 if any does.
The corpus covers sweep (csv/json x log/linear, 2 to 2000 rows), all
channel modes at r = 0, 1e-6, 1e-3, pi/4, at random r and at random
--a/--omega, geometry grids, and usage and I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

SEED = 20140
MODES = ("choi", "kraus", "invert")
USAGE_ERRORS = [
    [],
    ["--help"],
    ["nosuch"],
    ["sweep", "--a-min", "0"],
    ["sweep", "--a-min", "-1"],
    ["sweep", "--a-min", "5", "--a-max", "1"],
    ["sweep", "--steps", "1"],
    ["sweep", "--steps", "x"],
    ["sweep", "--omega", "-0.1"],
    ["sweep", "--omega", "0"],
    ["sweep", "--scale", "cubic"],
    ["sweep", "--format", "xml"],
    ["sweep", "--no-such-flag"],
    ["sweep", "--a-min", "nan"],
    ["sweep", "--a-max", "nan"],
    ["sweep", "--a-max", "inf"],
    ["sweep", "--omega", "nan"],
    ["sweep", "--omega", "inf"],
    ["sweep", "--seed", "1"],
    ["sweep", "--steps", "3", "--out", "/no/such/dir/x.csv"],
    ["channel"],
    ["channel", "--mode", "choi"],
    ["channel", "--mode", "bogus", "--r", "0.3"],
    ["channel", "--r", "1.2"],
    ["channel", "--r", "-0.1"],
    ["channel", "--r", "nan"],
    ["channel", "--r", "inf"],
    ["channel", "--a", "nan"],
    ["channel", "--a", "inf"],
    ["channel", "--a", "-1"],
    ["channel", "--a", "1", "--omega", "nan"],
    ["channel", "--a", "1", "--omega", "-1"],
    ["channel", "--r", "0.3", "--seed", "1"],
    ["channel", "--r", "0.3", "--out", "/no/such/dir/x.txt"],
    ["geometry"],
    ["geometry", "--r", "2.0"],
    ["geometry", "--r", "nan"],
    ["geometry", "--r", "0.1", "--n-theta", "1"],
    ["geometry", "--r", "0.1", "--n-phi", "0"],
    ["geometry", "--r", "0.1", "--steps", "10"],
    ["geometry", "--r", "0.1", "--seed", "1"],
    ["geometry", "--r", "0.1", "--n-theta", "3", "--out", "/no/such/dir/p.csv"],
]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def corpus() -> list[list[str]]:
    """The seeded argv list; identical on every run and every tree."""
    rng = random.Random(SEED)
    cases = []
    for fmt in ("csv", "json"):
        for scale in ("log", "linear"):
            cases.append(["sweep", "--steps", "5", "--format", fmt, "--scale", scale])
            for _ in range(60):
                a_min = _log_uniform(rng, 1e-3, 2.0)
                a_max = a_min * _log_uniform(rng, 1.5, 1e4)
                cases.append([
                    "sweep", "--a-min", repr(a_min), "--a-max", repr(a_max),
                    "--omega", repr(_log_uniform(rng, 1e-2, 10.0)),
                    "--steps", str(rng.randint(2, 12)),
                    "--format", fmt, "--scale", scale,
                ])
    # Long sweeps, 50 to 2000 rows: a sweep is one stacked solve, so large
    # stacks need cases of their own. A second generator leaves the argv
    # drawn from the first unchanged.
    long_rng = random.Random(SEED + 1)
    for steps in (50, 97, 200, 333, 500, 800, 1200, 2000):
        a_min = _log_uniform(long_rng, 1e-3, 2.0)
        cases.append([
            "sweep", "--a-min", repr(a_min),
            "--a-max", repr(a_min * _log_uniform(long_rng, 1.5, 1e4)),
            "--omega", repr(_log_uniform(long_rng, 1e-2, 10.0)),
            "--steps", str(steps),
            "--format", long_rng.choice(("csv", "json")),
            "--scale", long_rng.choice(("log", "linear")),
        ])
    corners = ["0", "1e-6", "1e-3", repr(math.pi / 4)]
    for mode in MODES:
        cases += [["channel", "--r", r, "--mode", mode] for r in corners]
        cases += [["channel", "--r", repr(rng.uniform(0.0, math.pi / 4)),
                   "--mode", mode] for _ in range(200)]
        cases += [["channel", "--a", repr(_log_uniform(rng, 1e-2, 1e3)),
                   "--omega", repr(_log_uniform(rng, 1e-2, 10.0)),
                   "--mode", mode] for _ in range(40)]
    cases.append(["channel", "--a", "4.6", "--omega", "0.1"])
    for r in corners:
        cases.append(["geometry", "--r", r, "--n-theta", "5", "--n-phi", "4"])
    for _ in range(80):
        cases.append([
            "geometry", "--r", repr(rng.uniform(0.0, math.pi / 4)),
            "--n-theta", str(rng.randint(2, 12)), "--n-phi", str(rng.randint(2, 12)),
            "--steps", str(rng.choice([100, 101, 1000, 10000])),
        ])
    return cases + USAGE_ERRORS


def _run(main, argv: list[str], out_path: Path | None) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    full = argv if out_path is None else argv + ["--out", str(out_path)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(full)
    data = None
    if out_path is not None and out_path.exists():
        data = out_path.read_text()
        out_path.unlink()
    return {"argv": argv, "to_file": out_path is not None, "rc": rc,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "file": data}


def dump(dest: Path, src: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    from rindler.cli import main

    cases = corpus()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp, open(dest, "w") as fh:
        out_path = Path(tmp) / "out"
        for argv in cases:
            rec = _run(main, argv, None)
            fh.write(json.dumps(rec) + "\n")
            runs += 1
            if rec["rc"] == 0 and "--help" not in argv:
                fh.write(json.dumps(_run(main, argv, out_path)) + "\n")
                runs += 1
    print(f"{len(cases)} argv, {runs} runs -> {dest}")


def _load(path: Path) -> dict:
    recs = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        recs[(tuple(rec["argv"]), rec["to_file"])] = rec
    return recs


def compare(a: Path, b: Path) -> int:
    left, right = _load(a), _load(b)
    keys = sorted(set(left) | set(right))
    differ = [k for k in keys if left.get(k) != right.get(k)]
    for argv, to_file in differ:
        print(("--out " if to_file else "") + " ".join(argv))
    n_argv = len({argv for argv, _ in keys})
    print(f"{n_argv} argv, {len(keys)} runs, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the corpus and write JSON lines")
    p_dump.add_argument("dest", type=Path)
    p_dump.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree holding the rindler package")
    p_cmp = sub.add_parser("compare", help="list runs whose records differ")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.dest, args.src)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
