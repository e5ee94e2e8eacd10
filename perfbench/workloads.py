"""Seeded inputs, the timed calls and the output oracles of the three workloads.

A workload is an endless sequence of cycles, each a list of calls. The
size parameter of each call (sweep rows, geometry grid side, Haar sample
count) is drawn on a stratified lattice: a cycle of m calls puts one value
in each of m equal strata of its range, and successive cycles shift that
lattice by a van der Corput offset. A run made of whole cycles then holds
nearly the same size distribution whatever the seed, which keeps the
latency percentiles steady from seed to seed while the seed still picks
every value, their order and every other argument.

The program is only ever called through its public entry points:
`rindler.cli.main(argv)` and `rindler.teleport_fidelity_mc(
rindler.shared_state(r), samples, seed)`. The oracles are closed forms
written here with the standard library and numpy; they call nothing in
rindler.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "inspect", "teleport")

R_MAX = math.pi / 4

# Absolute tolerance of every closed-form check on printed output. The CLI
# prints 12 significant digits, so a correct value is off by at most ~1e-11
# here, including the 1/cos^4 r amplification in the spheroid equation.
PRINT_TOL = 1e-9

SWEEP_CALLS_PER_CYCLE = 8
SWEEP_ROWS = (3, 200)
INSPECT_CHANNEL_PER_CYCLE = 18
INSPECT_GEOMETRY_PER_CYCLE = 6
GEOMETRY_SIDE = (10, 200)
TELEPORT_CALLS_PER_CYCLE = 8
TELEPORT_SAMPLES = (10_000, 100_000)

# Keeps channel calls given as --a/--omega away from the angles where the
# program's rank floor (1e-12 on sin^2 r) and CP tolerance (1e-10 on
# tan^2 r / 2) would decide the kraus term count and the invert verdict:
# 2 pi omega / a <= 15 gives r >= 5e-4.
MAX_EXPONENT = 15.0


@dataclass
class Call:
    """One closed-loop request: a CLI argv or a Monte-Carlo teleport call."""

    kind: str  # sweep | channel | geometry | teleport
    items: int
    argv: list = None
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    bytes_out: int
    errors: list


def _van_der_corput(n: int) -> float:
    x, f = 0.0, 0.5
    while n:
        x += f * (n & 1)
        n >>= 1
        f *= 0.5
    return x


def _lattice(rng, cycle: int, m: int, shift: float) -> np.ndarray:
    """m points in [0, 1), one per stratum, in seeded order."""
    offset = (shift + _van_der_corput(cycle)) % 1.0
    return rng.permutation((np.arange(m) + offset) / m)


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return _log_between(float(rng.random()), lo, hi)


def _cos_r(a: float, omega: float) -> float:
    return 1.0 / math.sqrt(math.exp(-2.0 * math.pi * omega / a) + 1.0)


def _balanced(rng, values, n):
    """n entries cycling through values, in seeded order."""
    return list(rng.permutation([values[i % len(values)] for i in range(n)]))


def _sweep_cycle(rng, cycle, shift, out_path):
    us = _lattice(rng, cycle, SWEEP_CALLS_PER_CYCLE, shift)
    scales = _balanced(rng, ("log", "linear"), SWEEP_CALLS_PER_CYCLE)
    formats = _balanced(rng, ("csv", "json"), SWEEP_CALLS_PER_CYCLE)
    calls = []
    for u, scale, fmt in zip(us, scales, formats):
        rows = round(_log_between(u, *SWEEP_ROWS))
        omega = _log_uniform(rng, 0.02, 2.0)
        a_min = _log_uniform(rng, 0.01, 1.0)
        a_max = a_min * _log_uniform(rng, 10.0, 1e4)
        argv = ["sweep", "--omega", repr(omega), "--a-min", repr(a_min),
                "--a-max", repr(a_max), "--steps", str(rows),
                "--scale", scale, "--format", fmt, "--out", str(out_path)]
        params = dict(omega=omega, a_min=a_min, a_max=a_max, rows=rows,
                      scale=scale, format=fmt, out=out_path)
        calls.append(Call("sweep", rows, argv, params))
    return calls


def _channel_call(rng, mode, r=None):
    if r is None and rng.random() < 0.5:
        r = float(rng.uniform(0.0, R_MAX))
    if r is not None:
        return Call("channel", 1, ["channel", "--r", repr(r), "--mode", mode],
                    dict(mode=mode, r=r))
    while True:
        a = _log_uniform(rng, 0.05, 50.0)
        omega = _log_uniform(rng, 0.01, 1.0)
        if 2.0 * math.pi * omega / a <= MAX_EXPONENT:
            break
    r = math.acos(_cos_r(a, omega))
    argv = ["channel", "--a", repr(a), "--omega", repr(omega), "--mode", mode]
    return Call("channel", 1, argv, dict(mode=mode, r=r))


def _inspect_cycle(rng, cycle, shift, out_path):
    modes = _balanced(rng, ("kraus", "choi", "invert"), INSPECT_CHANNEL_PER_CYCLE)
    # Both ends of the angle range in every cycle: r = 0 is the rank-1
    # Choi and CP-inverse corner, r = pi/4 the infinite-acceleration limit.
    calls = [_channel_call(rng, modes[0], 0.0), _channel_call(rng, modes[1], R_MAX)]
    calls += [_channel_call(rng, mode) for mode in modes[2:]]
    for u in _lattice(rng, cycle, INSPECT_GEOMETRY_PER_CYCLE, shift):
        side = round(_log_between(u, *GEOMETRY_SIDE))
        r = float(rng.uniform(0.0, R_MAX))
        argv = ["geometry", "--r", repr(r), "--n-theta", str(side),
                "--n-phi", str(side), "--out", str(out_path)]
        calls.append(Call("geometry", 1, argv, dict(r=r, side=side, out=out_path)))
    return [calls[i] for i in rng.permutation(len(calls))]


def _teleport_cycle(rng, cycle, shift):
    calls = []
    for u in _lattice(rng, cycle, TELEPORT_CALLS_PER_CYCLE, shift):
        samples = round(_log_between(u, *TELEPORT_SAMPLES))
        r = float(rng.uniform(0.0, R_MAX))
        seed = int(rng.integers(2**31))
        calls.append(Call("teleport", samples, None,
                          dict(r=r, samples=samples, seed=seed)))
    return calls


def cycles(workload: str, seed: int, out_dir: Path):
    """Endless seeded sequence of call cycles for one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    shift = float(rng.random())
    out_path = out_dir / f"{workload}.out"
    cycle = 0
    while True:
        if workload == "sweep":
            yield _sweep_cycle(rng, cycle, shift, out_path)
        elif workload == "inspect":
            yield _inspect_cycle(rng, cycle, shift, out_path)
        else:
            yield _teleport_cycle(rng, cycle, shift)
        cycle += 1


def warmup_calls(workload: str, out_dir: Path) -> list:
    """Small fixed calls that load every code path a workload reaches."""
    out = out_dir / f"{workload}.out"
    if workload == "sweep":
        argv = ["sweep", "--steps", "5", "--out", str(out)]
        return [Call("sweep", 5, argv, dict(omega=0.1, a_min=0.05, a_max=50.0,
                                            rows=5, scale="log", format="csv",
                                            out=out))]
    if workload == "inspect":
        return [Call("channel", 1, ["channel", "--r", "0.3", "--mode", mode],
                     dict(mode=mode, r=0.3)) for mode in ("kraus", "choi", "invert")] + [
            Call("geometry", 1, ["geometry", "--r", "0.3", "--n-theta", "10",
                                 "--n-phi", "10", "--out", str(out)],
                 dict(r=0.3, side=10, out=out))]
    return [Call("teleport", 1000, None, dict(r=0.3, samples=1000, seed=0))]


class Executor:
    """Runs calls against the imported package and checks their output.

    `root_span` is a context-manager factory taking a span name; the
    traced run passes one that records the call's root span.
    """

    def __init__(self, package):
        self.package = package

    def run(self, call: Call, root_span) -> Outcome:
        if call.kind == "teleport":
            return self._teleport(call, root_span)
        return self._cli(call, root_span)

    def _cli(self, call, root_span):
        cli = self.package.cli
        out_file = call.params.get("out")
        if out_file is not None:
            out_file.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), root_span("bench.call"):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except Exception as exc:  # the program raised: a failed call
                code = exc
            seconds = time.perf_counter() - t0
        text = out.getvalue()
        bytes_out = len(text.encode())
        if code != 0:
            return Outcome(seconds, bytes_out,
                           [f"{call.kind} ended with {code!r}: {err.getvalue().strip()}"])
        try:
            file_text = out_file.read_text() if out_file is not None else ""
            bytes_out += len(file_text.encode())
            errors = CHECKS[call.kind](call.params, text, file_text)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            errors = [f"{call.kind} output missing or unparsable: {exc!r}"]
        return Outcome(seconds, bytes_out, errors)

    def _teleport(self, call, root_span):
        pkg = self.package
        p = call.params
        with root_span("bench.call"):
            t0 = time.perf_counter()
            try:
                estimate = pkg.teleport_fidelity_mc(pkg.shared_state(p["r"]),
                                                    p["samples"], p["seed"])
            except Exception as exc:  # the program raised: a failed call
                estimate = exc
            seconds = time.perf_counter() - t0
        if isinstance(estimate, Exception):
            return Outcome(seconds, 0, [f"teleport raised {estimate!r}"])
        return Outcome(seconds, 0, check_teleport(p, estimate))


def _f_max(c: float) -> float:
    return 0.5 * (1.0 + (2.0 * c + c * c) / 3.0)


def _close(errors, what, got, want, tol=PRINT_TOL):
    if not abs(got - want) <= tol:
        errors.append(f"{what}: got {got!r}, want {want!r} (tol {tol})")


def check_sweep(p, _stdout, text):
    """Rows: bell_half = cos^2 r, concurrence = cos r, F_max closed form, qmid > 0."""
    errors = []
    fields = ("a", "r", "bell_half", "concurrence", "f_max", "qmid")
    if p["format"] == "csv":
        lines = text.splitlines()
        if not lines[0].startswith("#") or lines[1] != ",".join(fields):
            errors.append("sweep csv header mismatch")
        rows = [dict(zip(fields, map(float, line.split(",")))) for line in lines[2:]]
    else:
        rows = json.loads(text)
    if len(rows) != p["rows"]:
        return errors + [f"sweep: {len(rows)} rows, want {p['rows']}"]
    space = np.geomspace if p["scale"] == "log" else np.linspace
    for a_want, row in zip(space(p["a_min"], p["a_max"], p["rows"]), rows):
        a_want = float(a_want)
        c = _cos_r(a_want, p["omega"])
        _close(errors, "sweep a", row["a"], a_want, PRINT_TOL * a_want)
        _close(errors, "sweep cos r", math.cos(row["r"]), c)
        _close(errors, "sweep bell_half", row["bell_half"], c * c)
        _close(errors, "sweep concurrence", row["concurrence"], c)
        _close(errors, "sweep f_max", row["f_max"], _f_max(c))
        if not row["qmid"] > 0.0:
            errors.append(f"sweep qmid {row['qmid']!r} not positive")
    return errors[:5]


def _parse_matrix(lines):
    return np.array([[complex(x) for x in line.split()] for line in lines])


def _parse_terms(lines):
    """(sign, 2x2 operator) blocks: a 'sign +1' line then two rows."""
    terms = []
    while lines and lines[0].startswith("sign "):
        terms.append((int(lines[0].split()[1]), _parse_matrix(lines[1:3])))
        lines = lines[3:]
    return terms, lines


def _choi_of(terms):
    """Doubled Choi matrix sum_k sign_k vec(K) vec(K)^dag, vec column-major."""
    return sum(s * np.outer(k.flatten("F"), k.flatten("F").conj()) for s, k in terms)


def check_channel(p, text, _file_text):
    """Choi trace 1; kraus has 1 term at r = 0 and 2 otherwise; invert is NCP for r > 0."""
    errors = []
    lines = text.splitlines()
    r, mode = p["r"], p["mode"]
    c, s = math.cos(r), math.sin(r)
    _close(errors, "channel cos r", math.cos(float(lines[0].split("=")[1])), c)
    choi_state = np.array([[c * c, 0, 0, c], [0, s * s, 0, 0], [0, 0, 0, 0], [c, 0, 0, 1]]) / 2
    if mode == "choi":
        m = _parse_matrix(lines[2:6])
        _close(errors, "choi trace", np.trace(m).real, 1.0)
        _close(errors, "choi entries", float(np.max(np.abs(m - choi_state))), 0.0)
    elif mode == "kraus":
        count = int(lines[1].split(":")[1].split()[0])
        terms, _ = _parse_terms(lines[2:])
        want = 1 if r == 0.0 else 2
        if count != want or len(terms) != want:
            errors.append(f"kraus: {count} term(s) at r={r!r}, want {want}")
        if any(sign != 1 for sign, _ in terms):
            errors.append("kraus: negative term sign for a CP channel")
        _close(errors, "kraus choi", float(np.max(np.abs(_choi_of(terms) - 2 * choi_state))), 0.0)
    else:
        terms, rest = _parse_terms(lines[2:])
        completeness = sum(sign * (k.conj().T @ k) for sign, k in terms)
        _close(errors, "invert completeness", float(np.max(np.abs(completeness - np.eye(2)))), 0.0)
        eigs = [float(x) for x in rest[0].split(":")[1].split(",")]
        _close(errors, "invert choi trace", sum(eigs), 1.0)
        _close(errors, "invert min eigenvalue", min(eigs), -math.tan(r) ** 2 / 2)
        verdict = rest[1].split()[1]
        if verdict != ("NCP" if r > 0.0 else "CP"):
            errors.append(f"invert: verdict {verdict} at r={r!r}")
    return errors


def check_geometry(p, text, file_text):
    """Center -sin^2 r, semi-axes cos r and cos^2 r, volume cos^4 r, points on the spheroid."""
    errors = []
    r = p["r"]
    c, s = math.cos(r), math.sin(r)
    summary = text.strip().splitlines()[-1].lstrip("# ").split()
    values = dict(item.split("=", 1) for item in summary)
    center = [float(x) for x in values["center"].strip("()").split(",")]
    _close(errors, "center x", center[0], 0.0)
    _close(errors, "center y", center[1], 0.0)
    _close(errors, "center z", center[2], -s * s)
    _close(errors, "equatorial semi-axis", float(values["semi_axis_equatorial"]), c)
    _close(errors, "polar semi-axis", float(values["semi_axis_polar"]), c * c)
    _close(errors, "eccentricity", float(values["eccentricity"]), s)
    _close(errors, "volume fraction", float(values["volume_fraction"]), c ** 4)
    lines = file_text.splitlines()
    if lines[0] != "theta,phi,x,y,z":
        errors.append("geometry csv header mismatch")
    pts = np.array([line.split(",") for line in lines[1:]], dtype=float)
    if pts.shape != (p["side"] ** 2, 5):
        return errors + [f"geometry: grid shape {pts.shape}, want {p['side'] ** 2} rows"]
    x, y, z = pts[:, 2], pts[:, 3], pts[:, 4]
    surface = (x * x + y * y) / (c * c) + ((z + s * s) / (c * c)) ** 2
    _close(errors, "points on spheroid", float(np.max(np.abs(surface - 1.0))), 0.0)
    return errors


def check_teleport(p, estimate):
    """Within 1/sqrt(samples) of F_max = (1 + (2 cos r + cos^2 r)/3)/2.

    A fidelity lies in [0, 1], so one sample's standard deviation is at
    most 1/2 and the tolerance is two of those bounds on the mean.
    """
    errors = []
    _close(errors, "teleport fidelity", estimate, _f_max(math.cos(p["r"])),
           1.0 / math.sqrt(p["samples"]))
    return errors


CHECKS = {"sweep": check_sweep, "channel": check_channel, "geometry": check_geometry}


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import rindler (and rindler.cli) from this checkout's src/ and nowhere else."""
    if not (SRC / "rindler" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC / 'rindler'}")
    sys.path.insert(0, str(SRC))
    import rindler
    import rindler.cli  # noqa: F401  (binds rindler.cli)

    if Path(rindler.__file__).resolve().parent != (SRC / "rindler").resolve():
        raise SystemExit(f"error: imported rindler from {rindler.__file__}, not {SRC}")
    return rindler


def prepare(package, workload: str, seed: int, out_dir: Path):
    """Executor, seeded call cycles and the outcomes of the warm-up calls.

    This is the set-up a probe times: the first cycle of inputs is
    generated here, then the workload's warm-up calls run.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    executor = Executor(package)
    source = cycles(workload, seed, out_dir)
    first = next(source)
    warmup = [executor.run(call, nullcontext) for call in warmup_calls(workload, out_dir)]
    return executor, itertools.chain([first], source), warmup
