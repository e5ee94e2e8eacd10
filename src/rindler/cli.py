"""Command-line front end.

Three subcommands: `sweep` tabulates the correlation measures of the
shared state against acceleration, `channel` prints Choi/Kraus data for
one mixing angle (including the inverse, certified non-CP once its
negative Choi eigenvalue clears the roundoff floor, r >= 4.3e-8),
`geometry` samples the image spheroid. Output is deterministic; numbers
use 12 significant digits so files round-trip through float parsing.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .channels import choi_matrix, inverse_unruh, is_cp, kraus_from_choi, unruh_kraus
from .correlations import measure_report
from .geometry import spheroid_report, surface_grid
from .qmat import JacobiConvergenceError
from .unruh import R_MAX, mixing_angle, shared_state

SWEEP_HEADER = "a,r,bell_half,concurrence,f_max,qmid"
# One sweep row as a %-template: CSV, and JSON in the layout of json.dumps(indent=2).
_FIELDS = SWEEP_HEADER.split(",")
CSV_ROW = ",".join(["%.12g"] * len(_FIELDS)) + "\n"
JSON_ROW = "  {\n" + ",\n".join(f'    "{f}": %s' for f in _FIELDS) + "\n  }"
# Most rows or grid points: numpy cannot size 256 bytes each past it.
MAX_COUNT = sys.maxsize // 256
QMID_NOTE = (
    "# qmid convention: degenerate marginal eigenbases fall back to the"
    " computational basis"
)


def _json_token(tok: str) -> str:
    # repr(float(tok)): differs from tok on integral text, exponents 12-15, subnormals.
    if "e" not in tok:
        return tok if "." in tok or "n" in tok else tok + ".0"
    exp = int(tok[tok.index("e") + 1:])
    return repr(float(tok)) if 12 <= exp <= 15 or exp < -307 else tok


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@functools.cache
def _words() -> np.ndarray:
    """_cells_12g's 4-byte words as read-only uint32: '%04d' % w at w < 10^4, then
    the same with trailing zeros NUL; "," and NUL or "-", then "0."; 0 to 3 zeros."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # row w: w's 4 digits
    text = digits + np.uint8(ord("0"))
    kept = np.maximum.accumulate(digits[:, ::-1], 1)[:, ::-1] > 0  # not a trailing 0
    lead = b",\0" b"0." b",-0." + b"".join(b"0" * z + b"\0" * (4 - z) for z in range(4))
    return np.frombuffer(text.tobytes() + (text * kept).tobytes() + lead, np.uint32)


def _cells_12g(v: np.ndarray) -> np.ndarray:
    """',' + '%.12g' % v for 1-D finite v: one 20-byte row each, NUL-padded.

    In [1e-4, 1): sign, "0.", z zeros and the 12 digits of m = rint(s), s = |v|
    10^(12+z), as three words, trailing zeros NUL. s rounds once and monotonically,
    and each k + 0.5 below 2^40 is a float: rint(s) is exact unless s is a tie.
    Ties, zeros, |v| >= 1, exponent forms and m = 1e12 take their own text.
    """
    a = np.minimum(np.abs(v), 1.0)
    z = (a < 0.1).astype(np.intp) + (a < 0.01) + (a < 0.001)
    s = a * np.array([1e12, 1e13, 1e14, 1e15])[z]
    m = np.rint(s)
    fast = (s >= 1e11) & (np.abs(s - m) < 0.5) & (m < 1e12)
    # m = hi 10^8 + mid 10^4 + low, exact; a word is NUL-trailed if those after are 0.
    hi, q = np.floor(m / 1e8), np.floor(m / 1e4)
    mid, low = q - hi * 1e4, m - q * 1e4
    idx = np.empty((v.size, 5), np.intp)
    idx[:, 0], idx[:, 1], idx[:, 4] = np.signbit(v) + 20000, z + 20002, low + 1e4
    idx[:, 2], idx[:, 3] = hi + (m == hi * 1e8) * 1e4, mid + (low == 0) * 1e4
    cells = np.take(_words(), idx).view(np.uint8)
    rest = np.flatnonzero(~fast)
    texts = ("%.12g," * rest.size % tuple(v[rest].tolist())).split(",")[:-1]
    cells[rest, 1:] = np.array(texts, dtype="S19").view(np.uint8).reshape(-1, 19)
    return cells


def _text_cells(template: str, values: np.ndarray) -> np.ndarray:
    # template % value of each value, one NUL-padded uint8 row each.
    return np.array([[template % v] for v in values.tolist()], dtype=bytes).view(np.uint8)


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _matrix_lines(m: np.ndarray) -> list[str]:
    return ["  ".join(_fmt_complex(z) for z in row) for row in np.asarray(m).tolist()]


def _term_lines(kmap) -> list[str]:
    return [line for sign, op in zip(kmap.signs.tolist(), kmap.ops)
            for line in [f"sign {sign:+d}", *_matrix_lines(op)]]


def _emit(text, out_path) -> None:
    # str, or the ASCII bytes of a points file: written in binary, decoded for stdout.
    if out_path is None:
        sys.stdout.write(text if isinstance(text, str) else text.decode())
    else:
        with open(out_path, "w" if isinstance(text, str) else "wb") as fh:
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
    return mixing_angle(args.a, args.omega)


def cmd_sweep(args) -> int:
    if not 0 < args.a_min < np.inf:
        return _usage(f"--a-min must be positive and finite, got {args.a_min}")
    if not args.a_min < args.a_max < np.inf:
        return _usage(f"--a-max must be finite and exceed --a-min, got {args.a_max}")
    if args.steps < 2:
        return _usage(f"--steps must be >= 2, got {args.steps}")
    if args.steps > MAX_COUNT:
        return _usage(f"--steps must be <= {MAX_COUNT}, got {args.steps}")
    if not 0 < args.omega < np.inf:
        return _usage(f"--omega must be positive and finite, got {args.omega}")

    with np.errstate(over="ignore"):  # geomspace overflows on a last point set to a_max
        grid = (np.geomspace if args.scale == "log" else np.linspace)(
            args.a_min, args.a_max, args.steps)

    # r, the states and the measures each come in one pass over all rows.
    r = mixing_angle(grid, args.omega)
    rep = measure_report(shared_state(r))
    table = np.empty((len(r), 6))
    table.T[:] = grid, r, rep.bell_B / 2.0, rep.concurrence, rep.f_max, rep.qmid
    values = tuple(table.ravel().tolist())

    # One %-template over the whole table. JSON rounds each value through
    # %.12g and prints its float repr, the text json.dumps writes.
    if args.format == "csv":
        text = f"{QMID_NOTE}\n{SWEEP_HEADER}\n" + CSV_ROW * len(r) % values
    else:
        tokens = map(_json_token, ("%.12g," * len(values) % values).split(",")[:-1])
        text = "[\n" + ",\n".join([JSON_ROW] * len(r)) % tuple(tokens) + "\n]\n"
    _emit(text, args.out)
    return 0


def cmd_channel(args) -> int:
    try:
        r = _resolve_angle(args)
    except ValueError as exc:
        return _usage(str(exc))

    lines = [f"mixing angle r = {_fmt(r)}"]
    if args.mode == "choi":
        choi = choi_matrix(unruh_kraus(r))
        lines.append("choi matrix (state normalization, trace 1):")
        lines += _matrix_lines(choi.matrix)
    elif args.mode == "kraus":
        kmap = kraus_from_choi(choi_matrix(unruh_kraus(r)))
        lines.append(f"kraus operators extracted from the choi matrix:"
                     f" {len(kmap.ops)} term(s)")
        lines += _term_lines(kmap)
    else:
        inv = inverse_unruh(r)
        lines += ["inverse map operators:", *_term_lines(inv)]
        verdict = is_cp(choi_matrix(inv))
        lines.append(
            "choi eigenvalues (state normalization): "
            + ", ".join(_fmt(x) for x in verdict.eigenvalues)
        )
        lines.append(f"verdict: {'CP' if verdict.is_cp else 'NCP'}"
                     f" (min eigenvalue {_fmt(verdict.min_eigenvalue)})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_geometry(args) -> int:
    try:
        r = _resolve_angle(args)
    except ValueError as exc:
        return _usage(str(exc))
    if args.n_theta < 2 or args.n_phi < 2:
        return _usage(
            f"--n-theta and --n-phi must be >= 2, got {args.n_theta}, {args.n_phi}"
        )
    if args.n_theta * args.n_phi > MAX_COUNT:
        return _usage(f"--n-theta * --n-phi must be <= {MAX_COUNT},"
                      f" got {args.n_theta} * {args.n_phi}")

    # One NUL-padded row a point after the header, x and y apart (half the temporaries);
    # translate drops the NULs, in about 0.6 the time of flat[flat != 0].
    theta, phi, x, y, z = surface_grid(r, args.n_theta, args.n_phi)
    cells = [_text_cells("%.12g", theta)[:, None], _text_cells(",%.12g", phi)[None],
             *(_cells_12g(c.ravel()).reshape(*c.shape, 20) for c in (x, y)),
             _text_cells(",%.12g\n", z)[:, None]]
    head = b"theta,phi,x,y,z\n"
    text = bytearray(len(head) + x.size * sum(c.shape[-1] for c in cells))
    text[:len(head)] = head
    np.concatenate([np.broadcast_to(c, x.shape + c.shape[-1:]) for c in cells], -1,
                   out=np.frombuffer(text, np.uint8)[len(head):].reshape(*x.shape, -1))
    _emit(text.translate(None, b"\0"), args.out)

    # The summary keys are the SpheroidReport field names.
    rep = spheroid_report(r)
    fields = " ".join(f"{k}={_fmt(v)}" for k, v in zip(rep._fields[1:], rep[1:]))
    print(f"# center=({','.join(map(_fmt, rep.center))}) {fields}")
    return 0


# Each subcommand: its function, its help and its options, each
# (flag, type or choices, default); a default of ... marks a required flag.
COMMANDS = {
    "sweep": (cmd_sweep, "tabulate measures against acceleration", [
        ("--omega", float, 0.1), ("--a-min", float, 0.05), ("--a-max", float, 50.0),
        ("--steps", int, 200), ("--scale", ("log", "linear"), "log"),
        ("--format", ("csv", "json"), "csv"), ("--out", str, None)]),
    "channel": (cmd_channel, "Choi/Kraus data at one angle", [
        ("--r", float, None), ("--a", float, None), ("--omega", float, 0.1),
        ("--mode", ("choi", "kraus", "invert"), "kraus"), ("--out", str, None)]),
    "geometry": (cmd_geometry, "sample the image spheroid", [
        ("--r", float, ...), ("--n-theta", int, 50), ("--n-phi", int, 50),
        ("--out", str, None)]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from COMMANDS once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="rindler",
        description="Acceleration-induced qubit noise: sweeps, channel data,"
        " Bloch geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func, parser=cmd)
        for flag, kind, default in options:
            kwargs = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            cmd.add_argument(flag, default=None if default is ... else default,
                             required=default is ..., **kwargs)
    return parser


def _table_args(argv):
    """parse_args(argv) read off COMMANDS, for a list or tuple of a subcommand, then exact
    `--flag value` pairs, valid, none starting with '-', all required flags; else None."""
    if (not isinstance(argv, (list, tuple)) or len(argv) % 2 == 0
            or not all(isinstance(a, str) for a in argv) or argv[0] not in COMMANDS):
        return None
    func, _, options = COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _ in options}
    values = {flag[2:].replace("-", "_"): default for flag, _, default in options}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kind = kinds.get(flag, ())  # an unknown flag has no choices
        if text.startswith("-") or isinstance(kind, tuple) and text not in kind:
            return None
        try:
            values[flag[2:].replace("-", "_")] = kind(text) if callable(kind) else text
        except ValueError:
            return None
    return None if ... in values.values() else argparse.Namespace(
        command=argv[0], func=func, **values)


def main(argv=None) -> int:
    args = _table_args(sys.argv[1:] if argv is None else argv)
    try:  # leftover arguments are reported with the usage of their subcommand
        args, extra = (args, []) if args else build_parser().parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, JacobiConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else 4


if __name__ == "__main__":
    sys.exit(main())
