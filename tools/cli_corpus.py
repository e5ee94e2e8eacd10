"""Byte-identity check for the `rindler` command line and library values.

Runs a fixed, seeded corpus of argv through `rindler.cli.main` in process
and records, for every run, the exit code, stdout, stderr and the bytes of
the `--out` file; a run that raises records the exception's type and message
as `error`, with `rc` null. Every argv that succeeds is run twice: once to
stdout and once with `--out`. A library section records the `repr` of every
`measure_report` field and every `dephased` entry for 300 seeded states,
listed as `lib measure_report #17`, `lib dephased #17`: every sweep row is
a shared state, so the CLI bytes do not see general-state values. It also
records `eig_hermitian` (eigenvalues, then eigenvectors) of each state and
of the stack of its two marginals, and `sqrt_psd` of each state: no printed
measure shows eigenvector bits. Then `teleport_fidelity_mc` of each state,
seeded with its index, with 1 to 10^5 samples (`MC_SAMPLES`). Last, the
channel code at an angle r_i running over [0, pi/4] with the index i:
`apply_to_second` of `unruh_kraus(r_i)` and of `inverse_unruh(r_i)` on each
state, `zip(signs, ops)` of `amplitude_damping(sin^2 r_i)` (sign, operator,
sign, operator), and `image_of_pure(theta_i, phi_i, r_i)` at a point of the
sphere per state (`SPHERE_ANGLES`: both poles, theta = pi + 1e-12 and the
equator, each at phi = 0 and just below 2 pi, on the eight states nearest
r = 0 and the eight nearest pi/4; seeded points between). After all of
those, so that every earlier record keeps its place, `spheroid_report(r_i)`
of each of the 300 angles, listed as `lib spheroid_report #17`: every field,
the center's three coordinates first. Last, `eig_hermitian` of s (G + G^dag)
and `sqrt_psd` of s G G^dag for 24 seeded complex normal G of dimension 2, 4
and 8 in turn, each at the scales s of `SOLVER_SCALES` (1e-200 to 1e7), listed
as `lib eig_hermitian scaled #k`, `lib sqrt_psd scaled #k`: every state above
has entries of at most 1, where the solver's stopping rule does not show its
scale. Dump the corpus on two source trees and compare:

    python tools/cli_corpus.py dump before.jsonl --src /path/to/old/src
    python tools/cli_corpus.py dump after.jsonl
    python tools/cli_corpus.py compare before.jsonl after.jsonl

`compare` lists every run and library record that differs, then apart, as
"only in before" or "only in after", each one that only one dump holds. It
counts the library records apart from the CLI runs, with the largest
|change| of a value per function, and exits 1 if anything is listed.
Either command stops quietly, with exit 1, if its reader closes stdout
early, as `compare before.jsonl after.jsonl | head` does.
The corpus covers sweep (csv/json x log/linear, 2 to 2000 rows, omega
0.005 to 20, a ratios up to 1e6), all channel modes at r = 0, 1e-6, 1e-3,
pi/4, at random r and at random --a/--omega, kraus and invert on both sides
of the angle where the Choi roundoff floor is cleared, all channel modes at
r = 5e-324 and invert at r = 1.9e-162 (where sin^2 r and tan^2 r / 2 are
subnormal), a sweep at subnormal accelerations, geometry grids from 2x2 to
200x200 (199x200 at r = 0 and pi/4; 2x200, 200x2 and 199x197 at r = 0, 0.3
and pi/4; 31x29 at r = 5e-324 and 1.9e-162), usage and I/O errors, forms at
the edge of the parser's table path (`TABLE_EDGES`), and an overflowing log
grid and counts numpy cannot size (`LARGE_VALUES`): 1262 argv in 2474 runs,
and 3540 library records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SEED = 20140
# A sweep whose qmid column moves in the 12th digit when qmid is computed
# as S(dephased) - S(rho) instead of as a difference of mutual informations.
QMID_DRIFT = ["sweep", "--omega", "0.03089858164727607", "--a-min", "6.456787829242969",
              "--a-max", "1592.7885349839266", "--steps", "500"]
MODES = ("choi", "kraus", "invert")
# kraus finds its second term and invert turns NCP once sin^2 r and
# tan^2 r / 2 clear the roundoff floor 4 eps max|lam|, at r = 4.3e-8;
# 1e-5 and 1.5e-5 straddle the fixed CP tolerance of -1e-10 used before.
FLOOR_ANGLES = ["3e-8", "4e-8", "4.3e-8", "5e-8", "1e-5", "1.5e-5"]
# Angles where sin^2 r and tan^2 r / 2 are subnormal: halving or doubling
# the Choi matrix is not exact there, so they pin its normalization.
SUBNORMAL = [["channel", "--r", "5e-324", "--mode", mode] for mode in MODES] + [
    ["channel", "--r", "1.922034831393248e-162", "--mode", "invert"],
    # Geometry at both angles: the center's -sin^2 r underflows to -0 or is subnormal.
    *(["geometry", "--r", r, "--n-theta", "31", "--n-phi", "29"]
      for r in ("5e-324", "1.922034831393248e-162")),
    # omega / a overflows for these accelerations; r is 0 on every row.
    ["sweep", "--steps", "3", "--a-min", "1e-320", "--a-max", "1e-310"],
]
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
# Forms at the edge of the parser's table path: a repeated flag and an empty
# --out stay on it; --flag=value, abbreviations, a value starting with '-', a
# flag as a value, '--', -h and a missing value go to argparse.
TABLE_EDGES = [
    ["sweep", "--steps=5"],
    ["geometry", "--r", "0.3", "--n-th", "4", "--n-p", "3"],
    ["channel", "--r", "0.1", "--r", "0.2"],
    ["channel", "--r", "-0"],
    ["sweep", "--out", "--steps", "3"],
    ["channel", "--", "--r", "0.3"],
    ["geometry", "-h"],
    ["channel", "--r", "0.3", "--out", ""],
    ["sweep", "--steps"],
]
# A log grid whose last point overflows in geomspace, and counts numpy cannot
# size (2^64, and 2^63 - 1 sweep rows); none is ever allocated.
LARGE_VALUES = [
    ["sweep", "--a-min", "1", "--a-max", "1.7976931348623157e308", "--steps", "4"],
    *(["geometry", "--r", "0.3", flag, str(2**64)] for flag in ("--n-theta", "--n-phi")),
    ["sweep", "--steps", str(2**64)],
    ["sweep", "--steps", str(2**63 - 1)],
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
    # Wide sweeps, with a fourth generator: omega 0.005-20, a ratio up to
    # 1e6, 2 to 600 rows. Together with QMID_DRIFT they catch a change of
    # the last printed digit of qmid, which the short sweeps above miss.
    wide_rng = random.Random(SEED + 3)
    cases.append(QMID_DRIFT)
    for _ in range(100):
        a_min = _log_uniform(wide_rng, 1e-3, 10.0)
        cases.append([
            "sweep", "--a-min", repr(a_min),
            "--a-max", repr(a_min * _log_uniform(wide_rng, 1.01, 1e6)),
            "--omega", repr(_log_uniform(wide_rng, 5e-3, 20.0)),
            "--steps", str(wide_rng.randint(2, 600)),
            "--format", wide_rng.choice(("csv", "json")),
            "--scale", wide_rng.choice(("log", "linear")),
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
    # Each grid also draws the step count of a quadrature since removed, so that
    # every later argv keeps the values it has always had.
    for _ in range(80):
        cases.append([
            "geometry", "--r", repr(rng.uniform(0.0, math.pi / 4)),
            "--n-theta", str(rng.randint(2, 12)), "--n-phi", str(rng.randint(2, 12)),
        ])
        rng.choice([100, 101, 1000, 10000])
    # Large grids, up to 200x200, with their own generator as above: the
    # geometry points are formatted from arrays, so size needs cases too.
    grid_rng = random.Random(SEED + 2)
    sides = [(200, 200)] + [(grid_rng.randint(20, 200), grid_rng.randint(20, 200))
                            for _ in range(5)]
    for n_theta, n_phi in sides:
        cases.append([
            "geometry", "--r", repr(grid_rng.uniform(0.0, math.pi / 4)),
            "--n-theta", str(n_theta), "--n-phi", str(n_phi),
        ])
        grid_rng.randint(100, 20000)  # the removed step count, as above
    # Large grids at the two end angles, where x and y take every form of
    # '%.12g' text: 0 and -0, 1 and -1, exponents, and 12-digit values.
    cases += [["geometry", "--r", r, "--n-theta", "199", "--n-phi", "200"]
              for r in ("0", repr(math.pi / 4))]
    # One long theta row, one long phi column, and an odd grid, where the row
    # shapes of the points table meet the '%.12g' fallback cells of x and y.
    cases += [["geometry", "--r", r, "--n-theta", n_theta, "--n-phi", n_phi]
              for r in ("0", "0.3", repr(math.pi / 4))
              for n_theta, n_phi in (("2", "200"), ("200", "2"), ("199", "197"))]
    cases += [["channel", "--r", r, "--mode", mode]
              for mode in ("kraus", "invert") for r in FLOOR_ANGLES]
    return cases + SUBNORMAL + USAGE_ERRORS + TABLE_EDGES + LARGE_VALUES


# Library states: A A^dag / Tr with a 4 x k complex A, k = 1..4 in turn,
# four lattice states (entries multiples of 1/4, so degenerate marginals
# are common) then four Gaussian ones.
LIB_STATES = 300
# Monte-Carlo sample counts, cycled over the states: a few samples, counts
# around 2048 and 3 x 2048 (a past kernel's block edges), around the
# kernel's block of 8192 samples, and 10^5 samples (13 blocks, the last
# partial), so that dumps of old and new trees compare record for record.
MC_SAMPLES = (1, 2, 3, 2047, 2048, 2049, 6161, 8191, 8192, 8193, 100000)


def _angle(i: int) -> float:
    # The mixing angle of state i: 0 for the first state, pi/4 for the last.
    return math.pi / 4 * i / (LIB_STATES - 1)


def _sphere_angles() -> list[tuple[float, float]]:
    # (theta_i, phi_i) per state: the corners on the first and last eight
    # states, r = 0 and r = pi/4 among them, and seeded points on the others.
    corners = [(theta, phi) for theta in (0.0, math.pi, math.pi + 1e-12, math.pi / 2)
               for phi in (0.0, math.nextafter(2.0 * math.pi, 0.0))]
    rng = random.Random(SEED + 4)
    return [corners[i % 8] if i < 8 or i >= LIB_STATES - 8
            else (rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            for i in range(LIB_STATES)]


SPHERE_ANGLES = _sphere_angles()


def _damping_terms(rindler, rho, i):
    kmap = rindler.amplitude_damping(math.sin(_angle(i)) ** 2)
    return [x for term in zip(kmap.signs, kmap.ops) for x in term]


# Each function takes the package, the state and its index.
LIB_FUNCTIONS = {
    "measure_report": lambda rindler, rho, i: rindler.measure_report(rho),
    "dephased": lambda rindler, rho, i: rindler.dephased(rho),
    "eig_hermitian": lambda rindler, rho, i: rindler.eig_hermitian(rho),
    "eig_hermitian marginals": lambda rindler, rho, i: rindler.eig_hermitian(
        np.stack([rindler.partial_trace(rho, [2, 2], t) for t in (1, 0)])),
    "sqrt_psd": lambda rindler, rho, i: rindler.sqrt_psd(rho),
    "teleport_fidelity_mc": lambda rindler, rho, i: [rindler.teleport_fidelity_mc(
        rho, MC_SAMPLES[i % len(MC_SAMPLES)], seed=i)],
    "apply_to_second unruh_kraus": lambda rindler, rho, i: [
        rindler.apply_to_second(rindler.unruh_kraus(_angle(i)), rho)],
    "apply_to_second inverse_unruh": lambda rindler, rho, i: [
        rindler.apply_to_second(rindler.inverse_unruh(_angle(i)), rho)],
    "amplitude_damping": _damping_terms,
    "image_of_pure": lambda rindler, rho, i: rindler.image_of_pure(
        *SPHERE_ANGLES[i], _angle(i)),
}


# Scales of the solver records: far from the entries of at most 1 that every
# state above has, so that a stopping rule tied to one scale shows in a dump.
# At 1e-200 the squares of the entries underflow.
SOLVER_SCALES = (1e-15, 1e-8, 1e3, 1e7, 1e-200)
SOLVER_MATRICES = 24


def solver_matrices() -> list:
    """(G + G^dag, G G^dag) of seeded complex normal G of dimension 2, 4, 8 in turn."""
    rng = np.random.default_rng(SEED + 5)
    pairs = []
    for k in range(SOLVER_MATRICES):
        n = (2, 4, 8)[k % 3]
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        # G G^dag by einsum, as A A^dag in lib_states.
        pairs.append((g + g.conj().T, np.einsum("ij,kj->ik", g, g.conj())))
    return pairs


def lib_states() -> list:
    """The seeded library states; identical on every run and every tree."""
    rng = np.random.default_rng(SEED)
    states = []
    while len(states) < LIB_STATES:
        k = 1 + len(states) % 4
        if len(states) // 4 % 2:
            parts = rng.normal(size=(2, 4, k))
        else:
            parts = rng.integers(-4, 5, size=(2, 4, k)) / 4.0
        a = parts[0] + 1j * parts[1]
        # A A^dag by einsum's own loop: a BLAS product would round by the CPU's
        # kernel, and dumps under two kernels would compare their inputs.
        m = np.einsum("ij,kj->ik", a, a.conj())
        tr = np.trace(m).real
        if tr > 1e-3:
            states.append(m / tr)
    return states


def _record(name: str, call) -> dict:
    rec = {"lib": name}
    try:
        # The fields of the result in order, each flattened.
        rec["values"] = [repr(v) for x in call() for v in np.ravel(x).tolist()]
    except Exception as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def _lib_records(rindler):
    for i, rho in enumerate(lib_states()):
        for name, func in LIB_FUNCTIONS.items():
            yield _record(f"{name} #{i}", lambda: func(rindler, rho, i))
    for i in range(LIB_STATES):
        yield _record(f"spheroid_report #{i}",
                      lambda: rindler.spheroid_report(_angle(i)))
    yield from _solver_records(rindler)


def _solver_records(rindler):
    # Matrix k at scale j is record #(4k + j) of each function for the first four
    # scales; those at 1e-200, added later, follow them, so no earlier one moved.
    pairs = solver_matrices()
    scaled = [(h * s, p * s) for h, p in pairs for s in SOLVER_SCALES[:4]]
    scaled += [(h * s, p * s) for s in SOLVER_SCALES[4:] for h, p in pairs]
    for i, (h, p) in enumerate(scaled):
        yield _record(f"eig_hermitian scaled #{i}", lambda: rindler.eig_hermitian(h))
        yield _record(f"sqrt_psd scaled #{i}", lambda: rindler.sqrt_psd(p))


def _run(main, argv: list[str], out_path: Path | None) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    full = argv if out_path is None else argv + ["--out", str(out_path)]
    error = None
    # "always": a warning is printed on every run that raises it, not only the
    # first, so a run's stderr does not depend on the runs before it.
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          warnings.catch_warnings()):
        warnings.simplefilter("always")
        try:
            rc = main(full)
        except Exception as exc:  # a crash is this run's result, not the dump's end
            rc, error = None, f"{type(exc).__name__}: {exc}"
    data = None
    if out_path is not None and out_path.exists():
        # newline="": the file's own line ends, not read_text's translated ones.
        with open(out_path, newline="") as fh:
            data = fh.read()
        out_path.unlink()
    rec = {"argv": argv, "to_file": out_path is not None, "rc": rc,
           "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "file": data}
    return rec if error is None else {**rec, "error": error}


def dump(dest: Path, src: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    import rindler
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
        n_lib = 0
        for rec in _lib_records(rindler):
            fh.write(json.dumps(rec) + "\n")
            n_lib += 1
    print(f"{len(cases)} argv, {runs} runs, {n_lib} library records -> {dest}")


def _load(path: Path) -> tuple[dict, dict]:
    # CLI runs keyed (argv, to_file); library records keyed by their name.
    runs, lib = {}, {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if "lib" in rec:
            lib[rec["lib"]] = rec
        else:
            runs[(tuple(rec["argv"]), rec["to_file"])] = rec
    return runs, lib


def _largest_change(x: dict, y: dict) -> float:
    # Largest |difference| of paired values; inf when a record holds none (an error).
    if not ("values" in x and "values" in y):
        return math.inf
    return max((abs(complex(u) - complex(v)) for u, v in zip(x["values"], y["values"])),
               default=0.0)


def _split(left: dict, right: dict, keys: list) -> tuple[list, list, list]:
    # The keys in both dumps whose records differ, those only in before, only in after.
    return ([k for k in keys if k in left and k in right and left[k] != right[k]],
            [k for k in keys if k not in right], [k for k in keys if k not in left])


def compare(a: Path, b: Path) -> int:
    (left, left_lib), (right, right_lib) = _load(a), _load(b)
    keys = sorted(set(left) | set(right))
    names = list(dict.fromkeys([*left_lib, *right_lib]))
    runs, libs = _split(left, right, keys), _split(left_lib, right_lib, names)
    for label, run_keys, lib_names in zip(("", "only in before: ", "only in after: "),
                                          runs, libs):
        for argv, to_file in run_keys:
            print(label + ("--out " if to_file else "") + " ".join(argv))
        for name in lib_names:
            print(f"{label}lib {name}")
    n_argv = len({argv for argv, _ in keys})
    print(f"{n_argv} argv, {len(keys)} runs, {len(runs[0])} differ, "
          f"{len(runs[1])} only in before, {len(runs[2])} only in after")
    for func in [*LIB_FUNCTIONS, "spheroid_report", "eig_hermitian scaled",
                 "sqrt_psd scaled"]:
        total, moved, before, after = ([k for k in group if k.split(" #")[0] == func]
                                       for group in (names, *libs))
        delta = max((_largest_change(left_lib[k], right_lib[k]) for k in moved),
                    default=0.0)
        print(f"lib {func}: {len(total)} records, {len(moved)} differ, "
              f"{len(before)} only in before, {len(after)} only in after, "
              f"max |change| {delta:.3g}")
    return 1 if any(runs) or any(libs) else 0


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
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:  # the reader left, as `| head` does: stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
