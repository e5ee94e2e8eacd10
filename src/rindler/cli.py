"""Command-line front end.

Three subcommands: `sweep` tabulates the correlation measures of the
shared state against acceleration, `channel` prints Choi/Kraus data for
one mixing angle (including the certified non-CP inverse), `geometry`
samples the image spheroid. Output is deterministic; numbers use 12
significant digits so files round-trip through float parsing.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channels import choi_matrix, inverse_unruh, is_cp, kraus_from_choi, unruh_kraus
from .correlations import measure_report
from .geometry import spheroid_report, surface_grid
from .qmat import JacobiConvergenceError
from .unruh import R_MAX, UnruhParams, shared_state

SWEEP_HEADER = "a,r,bell_half,concurrence,f_max,qmid"
QMID_NOTE = (
    "# qmid convention: degenerate marginal eigenbases fall back to the"
    " computational basis"
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _matrix_lines(m: np.ndarray) -> list[str]:
    return ["  ".join(_fmt_complex(z) for z in row) for row in np.asarray(m)]


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_angle(args) -> float:
    if args.r is not None:
        if not 0.0 <= args.r <= R_MAX + 1e-12:
            raise ValueError(f"--r {args.r} outside [0, pi/4]")
        return float(args.r)
    if args.a is None:
        raise ValueError("provide --r, or --a together with --omega")
    return UnruhParams(args.a, args.omega).r


def cmd_sweep(args) -> int:
    if not 0 < args.a_min < np.inf:
        return _usage(f"--a-min must be positive and finite, got {args.a_min}")
    if not args.a_min < args.a_max < np.inf:
        return _usage(f"--a-max must be finite and exceed --a-min, got {args.a_max}")
    if args.steps < 2:
        return _usage(f"--steps must be >= 2, got {args.steps}")
    if not 0 < args.omega < np.inf:
        return _usage(f"--omega must be positive and finite, got {args.omega}")

    if args.scale == "log":
        grid = np.geomspace(args.a_min, args.a_max, args.steps)
    else:
        grid = np.linspace(args.a_min, args.a_max, args.steps)

    # r and the state come from the scalar functions, row by row; the
    # measures then run once on the stack of all rows' states.
    rs = [UnruhParams(float(a), args.omega).r for a in grid]
    rep = measure_report(np.array([shared_state(r) for r in rs]))
    rows = list(zip(grid, rs, rep.bell_B / 2.0, rep.concurrence, rep.f_max, rep.qmid))

    if args.format == "csv":
        lines = [QMID_NOTE, SWEEP_HEADER] + [",".join(map(_fmt, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        fields = SWEEP_HEADER.split(",")
        rounded = [{f: float(_fmt(x)) for f, x in zip(fields, row)} for row in rows]
        text = json.dumps(rounded, indent=2) + "\n"
    _emit(text, args.out)
    return 0


def cmd_channel(args) -> int:
    try:
        r = _resolve_angle(args)
    except ValueError as exc:
        return _usage(str(exc))

    lines = [f"mixing angle r = {_fmt(r)}"]
    if args.mode == "choi":
        choi = choi_matrix(unruh_kraus(r), doubled=False)
        lines.append("choi matrix (state normalization, trace 1):")
        lines += _matrix_lines(choi.matrix)
    elif args.mode == "kraus":
        kmap = kraus_from_choi(choi_matrix(unruh_kraus(r)))
        lines.append(f"kraus operators extracted from the choi matrix:"
                     f" {len(kmap.terms)} term(s)")
        for sign, op in kmap.terms:
            lines.append(f"sign {sign:+d}")
            lines += _matrix_lines(op)
    else:
        inv = inverse_unruh(r)
        lines.append("inverse map operators:")
        for sign, op in inv.terms:
            lines.append(f"sign {sign:+d}")
            lines += _matrix_lines(op)
        verdict = is_cp(choi_matrix(inv, doubled=False))
        lines.append(
            "choi eigenvalues (state normalization): "
            + ", ".join(_fmt(x) for x in verdict.eigenvalues)
        )
        lines.append(f"verdict: {'CP' if verdict.is_cp else 'NCP'}"
                     f" (min eigenvalue {_fmt(verdict.min_eigenvalue)})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_geometry(args) -> int:
    if args.r is None or not 0.0 <= args.r <= R_MAX + 1e-12:
        return _usage(f"--r is required and must lie in [0, pi/4], got {args.r}")
    if args.n_theta < 2 or args.n_phi < 2:
        return _usage(
            f"--n-theta and --n-phi must be >= 2, got {args.n_theta}, {args.n_phi}"
        )
    if args.steps < 100:
        return _usage(f"--steps must be >= 100 for the quadrature, got {args.steps}")

    rows = surface_grid(args.r, args.n_theta, args.n_phi)
    lines = ["theta,phi,x,y,z"]
    for theta, phi, vec in rows:
        lines.append(
            ",".join(_fmt(v) for v in (theta, phi, vec.x, vec.y, vec.z))
        )
    _emit("\n".join(lines) + "\n", args.out)

    rep = spheroid_report(args.r, args.steps)
    print(
        "# center=({},{},{}) semi_axis_equatorial={} semi_axis_polar={}"
        " eccentricity={} volume_fraction={}".format(
            _fmt(rep.center.x),
            _fmt(rep.center.y),
            _fmt(rep.center.z),
            _fmt(rep.semi_axis_equatorial),
            _fmt(rep.semi_axis_polar),
            _fmt(rep.eccentricity),
            _fmt(rep.volume_fraction),
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rindler",
        description="Acceleration-induced qubit noise: sweeps, channel data,"
        " Bloch geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate measures against acceleration")
    sweep.add_argument("--omega", type=float, default=0.1)
    sweep.add_argument("--a-min", type=float, default=0.05)
    sweep.add_argument("--a-max", type=float, default=50.0)
    sweep.add_argument("--steps", type=int, default=200)
    sweep.add_argument("--scale", choices=("log", "linear"), default="log")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    channel = sub.add_parser("channel", help="Choi/Kraus data at one angle")
    channel.add_argument("--r", type=float, default=None)
    channel.add_argument("--a", type=float, default=None)
    channel.add_argument("--omega", type=float, default=0.1)
    channel.add_argument("--mode", choices=("choi", "kraus", "invert"),
                         default="kraus")
    channel.add_argument("--out", default=None)
    channel.set_defaults(func=cmd_channel)

    geom = sub.add_parser("geometry", help="sample the image spheroid")
    geom.add_argument("--r", type=float, required=True)
    geom.add_argument("--n-theta", type=int, default=50)
    geom.add_argument("--n-phi", type=int, default=50)
    geom.add_argument("--steps", type=int, default=10000,
                      help="Simpson subintervals for the volume quadrature")
    geom.add_argument("--out", default=None)
    geom.set_defaults(func=cmd_geometry)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except JacobiConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
