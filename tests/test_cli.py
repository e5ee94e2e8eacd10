import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rindler import channels, cli, correlations, qmat
from rindler.cli import main
from rindler.geometry import surface_grid
from rindler.qmat import JacobiConvergenceError
from rindler.unruh import mixing_angle
from test_geometry import _text_is_exact

SWEEP_HEADER = "a,r,bell_half,concurrence,f_max,qmid"
GOLDEN = Path(__file__).parent / "golden"


def read_lines(path):
    return path.read_text().splitlines()


def parse_sweep(path):
    lines = read_lines(path)
    assert lines[0].startswith("#")
    assert lines[1] == SWEEP_HEADER
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])


# The sweep's digit contract: each printed r, bell_half, concurrence, f_max and
# qmid is the correctly rounded 12-digit text of its exact value, evaluated to 60
# digits from the same double a and omega, or that value lies within the
# double's error bound of a 12-digit rounding tie. For r = atan(exp(-x)),
# x = pi omega / a, exp turns the rounding of x into a relative error of about
# x eps: the bound is 2 (x + 1) eps, and 4000 seeded draws reached 0.95 (x + 1)
# eps. The other columns come through the solver: 32 eps, where the same draws
# reached 1.6 (bell_half), 5.7 (concurrence), 0.8 (f_max) and 16.9 (qmid).
SWEEP_FIELD_TIE_EPS = 32


def _exact_sweep_row(a: float, omega: float) -> list:
    # r, bell_half = cos^2 r, concurrence = cos r, f_max = (1 + (2c + c^2) / 3) / 2
    # and qmid = H(c^2/2, s^2/2, 1/2) - H((1 + c^2)/2, s^2/2), to 60 digits.
    def entropy(*p):
        return -sum(q * mpmath.log(q, 2) for q in p if q > 0)

    with mpmath.workdps(60):
        x = mpmath.pi * mpmath.mpf(omega) / mpmath.mpf(a)
        r = mpmath.atan(mpmath.exp(-x))
        c2, s2 = mpmath.cos(r) ** 2, mpmath.sin(r) ** 2
        qmid = entropy(c2 / 2, s2 / 2, mpmath.mpf(1) / 2) - entropy((1 + c2) / 2, s2 / 2)
        return [x, r, c2, mpmath.cos(r), (1 + (2 * mpmath.cos(r) + c2) / 3) / 2, qmid]


def test_sweep_prints_the_exact_digits(capsys):
    # 150 two-row sweeps, whose rows are exactly --a-min and --a-max, with omega
    # in [0.005, 20] and a / omega in [0.005, 1e4], log-uniform, numpy seed 11:
    # x up to 628, past a = 0.18 omega, where arccos(cos_r) printed r = 0.
    rng = np.random.default_rng(11)
    for _ in range(150):
        omega = float(np.exp(rng.uniform(np.log(5e-3), np.log(20.0))))
        a_min, a_max = np.sort(omega * np.exp(rng.uniform(np.log(5e-3), np.log(1e4), 2)))
        argv = ["sweep", "--omega", repr(omega), "--a-min", repr(float(a_min)),
                "--a-max", repr(float(a_max)), "--steps", "2"]
        assert main(argv) == 0
        for line, a in zip(capsys.readouterr().out.splitlines()[2:], (a_min, a_max)):
            x, *exact = _exact_sweep_row(a, omega)
            got = [float(v) for v in line.split(",")[1:]]
            assert _text_is_exact(got[0], exact[0], 2 * (float(x) + 1)), argv
            for field, value in zip(got[1:], exact[1:]):
                assert _text_is_exact(field, value, SWEEP_FIELD_TIE_EPS), argv


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--steps", "20", "--out", str(out)])
        assert rc == 0
        data = parse_sweep(out)
        assert data.shape == (20, 6)

    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--steps", "15", "--out", str(out1)]) == 0
        assert main(["sweep", "--steps", "15", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_columns_degrade_monotonically(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--steps", "40", "--out", str(out)]) == 0
        data = parse_sweep(out)
        for col in (2, 3, 4, 5):
            assert np.all(np.diff(data[:, col]) <= 1e-12)

    def test_rest_limit_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--a-min", "0.001", "--a-max", "0.01",
            "--steps", "5", "--out", str(out),
        ]) == 0
        data = parse_sweep(out)
        assert np.allclose(data[:, 2:], 1.0, atol=1e-6)

    def test_asymptotic_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--a-min", "100", "--a-max", "10000",
            "--steps", "10", "--out", str(out),
        ]) == 0
        last = parse_sweep(out)[-1]
        assert last[2] == pytest.approx(0.5, abs=1e-3)
        assert last[3] == pytest.approx(1 / np.sqrt(2), abs=1e-3)
        assert last[4] == pytest.approx(0.8190355937288492, abs=1e-3)

    def test_csv_roundtrip_through_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--steps", "10", "--out", str(out)]) == 0
        for line in read_lines(out)[2:]:
            for token in line.split(","):
                assert format(float(token), ".12g") == token

    def test_json_mirrors_csv(self, tmp_path):
        csv_out = tmp_path / "sweep.csv"
        json_out = tmp_path / "sweep.json"
        args = ["sweep", "--steps", "12"]
        assert main(args + ["--out", str(csv_out)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
        data = parse_sweep(csv_out)
        rows = json.loads(json_out.read_text())
        assert len(rows) == 12
        keys = SWEEP_HEADER.split(",")
        for i, row in enumerate(rows):
            assert list(row) == keys
            assert [row[k] for k in keys] == list(data[i])

    def test_json_tokens_are_float_reprs(self):
        # The JSON text of a value x is repr(float('%.12g' % x)), which the
        # sweep writes without parsing its %.12g tokens back: checked on 10^6
        # floats of random exponent, integral values, 1e11-1e17 (where %.12g
        # turns to exponents and repr does not), subnormals and the corners.
        rng = np.random.default_rng(2014)

        def signed(x):
            return x * rng.choice([-1.0, 1.0], size=len(x))

        x = np.concatenate([
            np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64),
            signed(rng.normal(size=470_000) * 10.0 ** rng.integers(-12, 12, 470_000)),
            signed(np.floor(10.0 ** rng.uniform(0, 17, 250_000))),
            signed(10.0 ** rng.uniform(11, 17, 149_986)),
            signed(rng.integers(1, 2**52, 30_000).view(np.float64)),
            [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, np.finfo(float).max,
             1e11, 1e12, 999999999999.5, 1e15, 1e16, 1e17, np.inf, -np.inf],
        ])
        assert len(x) == 10**6
        values = tuple(x.tolist())
        tokens = ("%.12g," * len(values) % values).split(",")[:-1]
        assert list(map(cli._json_token, tokens)) == list(map(repr, map(float, tokens)))

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["sweep", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == SWEEP_HEADER
        assert len(lines) == 5

    def test_subnormal_accelerations_write_no_warning(self, capsys):
        assert main(["sweep", "--steps", "3", "--a-min", "1e-320",
                     "--a-max", "1e-310"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split(",")[1] for line in out.splitlines()[2:]] == ["0"] * 3

    def test_overflowing_log_grid_writes_no_warning(self, capsys):
        # geomspace overflows on its last point and then sets it to a_max; the golden
        # is the parent's stdout, recorded outside pytest (which makes the warning
        # an error).
        assert main(["sweep", "--a-min", "1", "--a-max", "1.7976931348623157e308",
                     "--steps", "4"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.encode() == (GOLDEN / "sweep_a_max_overflow.csv").read_bytes()

    def test_linear_scale(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--scale", "linear", "--a-min", "1", "--a-max", "3",
            "--steps", "3", "--out", str(out),
        ]) == 0
        data = parse_sweep(out)
        assert np.allclose(data[:, 0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--a-min", "0"],
            ["sweep", "--a-min", "5", "--a-max", "1"],
            ["sweep", "--steps", "1"],
            ["sweep", "--omega", "-0.1"],
            ["sweep", "--scale", "cubic"],
            ["sweep", "--no-such-flag"],
            ["sweep", "--a-min", "nan"],
            ["sweep", "--a-max", "nan"],
            ["sweep", "--a-max", "inf"],
            ["sweep", "--omega", "nan"],
            ["sweep", "--omega", "inf"],
            ["sweep", "--seed", "1"],
            ["sweep", "--a-min", "-1"],
            ["sweep", "--omega", "0"],
            ["sweep", "--format", "xml"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_unwritable_path_is_io_error(self, capsys):
        rc = main(["sweep", "--steps", "3", "--out", "/no/such/dir/x.csv"])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    # The whole table is one stacked measure_report: 4 eigensolves per
    # call, each on a stack of one matrix (or marginal pair) per row. The
    # dephased spectrum is read off the marginal eigenbases without a
    # solve. The state stack is checked once, at the boundary.
    @pytest.mark.parametrize("steps", [3, 200])
    def test_one_batched_solve_per_stage(self, monkeypatch, capsys, steps):
        solved, checked, spectra_only = [], [], []
        eig, hermitian = qmat._jacobi, qmat._hermitian

        def counting(m, *args, **kwargs):
            solved.append(np.shape(m))
            spectra_only.append(kwargs.get("vectors") is False)
            return eig(m, *args, **kwargs)

        def counting_check(m, *args, **kwargs):
            checked.append(np.shape(m))
            return hermitian(m, *args, **kwargs)

        for module in (qmat, correlations):
            monkeypatch.setattr(module, "_jacobi", counting)
        monkeypatch.setattr(qmat, "_hermitian", counting_check)
        assert main(["sweep", "--steps", str(steps)]) == 0
        assert len(solved) == 4
        assert all(shape[0] == steps for shape in solved)
        # gamma^T gamma and the Wootters matrix are read for their spectra alone.
        assert spectra_only.count(True) == 2
        assert checked == [(steps, 4, 4)]
        capsys.readouterr()

    def test_solver_failure_is_numerical_error(self, monkeypatch, capsys):
        def fail(rho):
            raise JacobiConvergenceError("no convergence")

        monkeypatch.setattr("rindler.cli.measure_report", fail)
        assert main(["sweep", "--steps", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no convergence" in captured.err


class TestChannel:
    def test_kraus_at_rest_is_identity_only(self, capsys):
        assert main(["channel", "--r", "0", "--mode", "kraus"]) == 0
        out = capsys.readouterr().out
        assert "1 term(s)" in out
        assert "sign +1" in out

    def test_kraus_operator_values(self, capsys):
        assert main(["channel", "--r", str(np.pi / 6), "--mode", "kraus"]) == 0
        out = capsys.readouterr().out
        assert "0.866025403784" in out
        assert "0.5" in out

    def test_choi_asymptotic_entries(self, capsys):
        assert main(["channel", "--r", str(np.pi / 4), "--mode", "choi"]) == 0
        out = capsys.readouterr().out
        assert "state normalization" in out
        assert "0.353553390593" in out
        assert "0.25" in out

    def test_invert_reports_negative_eigenvalue_and_verdict(self, capsys):
        assert main(["channel", "--r", str(np.pi / 6), "--mode", "invert"]) == 0
        out = capsys.readouterr().out
        assert "-0.166666666667" in out
        assert "NCP" in out

    def test_invert_solves_the_choi_matrix_once(self, monkeypatch, capsys):
        solved = []
        eig = qmat._jacobi

        def counting(m, *args, **kwargs):
            solved.append(m)
            return eig(m, *args, **kwargs)

        for module in (qmat, channels, cli):
            monkeypatch.setattr(module, "_jacobi", counting, raising=False)
        for _ in range(2):
            solved.clear()
            assert main(["channel", "--r", "0.3", "--mode", "invert"]) == 0
            assert len(solved) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["kraus", "invert"])
    def test_solver_failure_is_numerical_error(self, monkeypatch, capsys, mode):
        def fail(m, *args, **kwargs):
            raise JacobiConvergenceError("no convergence")

        monkeypatch.setattr("rindler.channels._jacobi", fail)
        assert main(["channel", "--r", "0.3", "--mode", mode]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no convergence" in captured.err

    def test_invert_at_rest_is_cp(self, capsys):
        assert main(["channel", "--r", "0", "--mode", "invert"]) == 0
        out = capsys.readouterr().out
        assert "verdict: CP" in out

    def test_acceleration_input_matches_angle_input(self, capsys):
        assert main(["channel", "--a", "4.6", "--omega", "0.1"]) == 0
        from_accel = capsys.readouterr().out
        r = mixing_angle(4.6, 0.1)
        assert main(["channel", "--r", str(r)]) == 0
        from_angle = capsys.readouterr().out
        assert from_accel == from_angle

    def test_missing_parameters(self, capsys):
        assert main(["channel", "--mode", "choi"]) == 2
        capsys.readouterr()

    def test_angle_out_of_range(self, capsys):
        assert main(["channel", "--r", "1.2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["channel", "--a", "nan"],
            ["channel", "--a", "inf"],
            ["channel", "--a", "1", "--omega", "nan"],
            ["channel", "--r", "nan"],
            ["channel", "--r", "0.3", "--seed", "1"],
            ["channel"],
            ["channel", "--mode", "bogus", "--r", "0.3"],
            ["channel", "--r", "-0.1"],
            ["channel", "--r", "inf"],
            ["channel", "--a", "-1"],
            ["channel", "--a", "1", "--omega", "-1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    # --r and --a are alternatives: both together were read as --r alone.
    @pytest.mark.parametrize("argv", [
        ["channel", "--r", "0.3", "--a", "1"],
        ["channel", "--a", "4.6", "--omega", "0.1", "--r", "0.3", "--mode", "choi"],
        ["channel", "--r=0.3", "--a", "1"],  # argparse's path
    ])
    def test_r_and_a_together_are_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: provide --r or --a, not both\n")

    def test_unknown_flag_shows_the_channel_usage(self, capsys):
        assert main(["channel", "--r", "0.1", "--bogus", "1"]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("usage: rindler channel [-h] [--r R]")
        assert stderr.endswith(
            "\nrindler channel: error: unrecognized arguments: --bogus 1\n")

    def test_unwritable_path_is_io_error(self, capsys):
        assert main(["channel", "--r", "0.3", "--out", "/no/such/dir/x.txt"]) == 3
        assert "error" in capsys.readouterr().err

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["channel", "--r", "0.3", "--out", str(out)]) == 0
        assert "mixing angle" in out.read_text()


class TestGeometry:
    def test_point_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "points.csv"
        rc = main([
            "geometry", "--r", str(np.pi / 4), "--n-theta", "6",
            "--n-phi", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "theta,phi,x,y,z"
        assert len(lines) == 1 + 30
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert np.allclose(first[2:], [0, 0, 0], atol=1e-12)
        assert np.allclose(last[2:], [0, 0, -1], atol=1e-12)

        summary = capsys.readouterr().out
        assert summary.startswith("# center=")
        assert "volume_fraction=0.25" in summary
        assert "eccentricity=0.707106781187" in summary

    def test_points_come_from_surface_grid(self, monkeypatch, capsys):
        calls = []

        def recording(*args):
            calls.append(args)
            return surface_grid(*args)

        monkeypatch.setattr(cli, "surface_grid", recording)
        assert main(["geometry", "--r", "0.3", "--n-theta", "3", "--n-phi", "4"]) == 0
        assert calls == [(0.3, 3, 4)]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 12 + 1

    # The summary's closed forms print the exact value's text at r = 0, where the
    # fraction is 1, and at r = 1e-6, where the eccentricity sin r is 1e-06. At
    # 1e-3 and below it the eccentricity no longer cancels: down to a subnormal r
    # it prints sin r, where 1 - (polar / equatorial)^2 printed 0.
    SMALL_ANGLE_SUMMARIES = [
        ("0", "# center=(0,0,-0) semi_axis_equatorial=1 semi_axis_polar=1"
              " eccentricity=0 volume_fraction=1"),
        ("1e-6", "# center=(0,0,-1e-12) semi_axis_equatorial=0.999999999999"
                 " semi_axis_polar=0.999999999999 eccentricity=1e-06"
                 " volume_fraction=0.999999999998"),
        ("1e-3", "# center=(0,0,-9.99999666667e-07) semi_axis_equatorial=0.9999995"
                 " semi_axis_polar=0.999999 eccentricity=0.000999999833333"
                 " volume_fraction=0.999998000002"),
        ("1.922034831393248e-162",
         "# center=(0,0,-4.94065645841e-324) semi_axis_equatorial=1"
         " semi_axis_polar=1 eccentricity=1.92203483139e-162 volume_fraction=1"),
        ("5e-324", "# center=(0,0,-0) semi_axis_equatorial=1 semi_axis_polar=1"
                   " eccentricity=4.94065645841e-324 volume_fraction=1"),
    ]
    SMALL_ANGLES = [r for r, _ in SMALL_ANGLE_SUMMARIES]

    @pytest.mark.parametrize("r, summary", SMALL_ANGLE_SUMMARIES, ids=SMALL_ANGLES)
    def test_small_angle_summary(self, r, summary, capsys):
        assert main(["geometry", "--r", r, "--n-theta", "2", "--n-phi", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == summary

    @pytest.mark.parametrize("r, summary", SMALL_ANGLE_SUMMARIES, ids=SMALL_ANGLES)
    def test_small_angle_summary_with_out(self, r, summary, tmp_path, capsys):
        # With --out the points go to the file and the summary alone to stdout.
        out = tmp_path / "points.csv"
        argv = ["geometry", "--r", r, "--n-theta", "2", "--n-phi", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == summary + "\n"
        assert out.read_text().count("\n") == 1 + 2 * 2

    # geometry --steps is gone with the quadrature it sized: any argv that
    # passes it, with a count once accepted (100, 101, the default 10^4), one
    # once refused (99, 2^64) or none, is a usage error before any output.
    @pytest.mark.parametrize("argv", [
        ["geometry", "--r", "0.3", "--steps", "100"],
        ["geometry", "--r", "0.3", "--steps", "99"],
        ["geometry", "--r", "0.3", "--steps", "10000"],
        ["geometry", "--r", "0.3", "--steps=101"],
        ["geometry", "--r", "0.3", "--steps", str(2**64)],
        ["geometry", "--r", "0.3", "--steps"],
        ["geometry", "--steps", "100", "--r", "0.3"],
    ], ids=" ".join)
    def test_steps_is_an_unrecognized_argument(self, argv, tmp_path, capsys):
        out = tmp_path / "points.csv"
        assert main(argv + ["--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "error: unrecognized arguments: --steps" in stderr
        assert not out.exists()
        # The usage shown is the subcommand's, as for any other usage error.
        assert stderr.startswith("usage: rindler geometry [-h] --r R")

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["geometry", "--r", "0.5", "--n-theta", "8", "--n-phi", "8"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["geometry", "--r", "2.0"],
            ["geometry", "--r", "0.1", "--n-theta", "1"],
            ["geometry", "--r", "0.1", "--steps", "10"],
            ["geometry"],
            ["geometry", "--r", "nan"],
            ["geometry", "--r", "0.1", "--seed", "1"],
            ["geometry", "--r", "0.1", "--n-phi", "0"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_cells_12g_rebuild_the_12g_text(self):
        # Each cell without its NULs is ',' + '%.12g' % x: checked on 10^6 seeded
        # doubles of both signs and their nextafter neighbours. Magnitudes in
        # [1e-4, 1) take the word path, ties (k + 0.5) / 10^m and values that round
        # up to 1, 0.1, 0.01, 0.001 its edges; the rest (random bits, subnormals,
        # powers of ten, +-0) print from their own text. The longest texts, 19
        # characters after the ',', fill all 20 bytes of their cells.
        rng = np.random.default_rng(1812)

        def signed(x):
            return x * rng.choice([-1.0, 1.0], size=len(x))

        digits = np.repeat([12, 13, 14, 15], 25_000)
        edges = np.concatenate([
            (rng.integers(10**11, 10**12, 100_000) + 0.5) / 10.0 ** digits,
            10.0 ** -rng.integers(0, 4, 20_000) * (1.0 - rng.uniform(0, 1e-12, 20_000)),
            10.0 ** np.arange(-323, 309),
        ])
        longest = np.array([-2.2250738585072014e-308, -1.2345678901234567e-100,
                            -9.999999999994e-300, -np.finfo(float).max])
        x = np.concatenate([
            signed(10.0 ** rng.uniform(-4, 0, 450_000)),
            np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64),
            signed(rng.normal(size=100_000) * 10.0 ** rng.integers(-20, 20, 100_000)),
            signed(rng.integers(1, 2**52, 20_000).view(np.float64)),
            [0.0, -0.0, 1.0, -1.0, 1e-4, 5e-324, np.finfo(float).max, 1.0 - 2.0**-53],
            signed(edges), *(signed(np.nextafter(edges, to)) for to in (-np.inf, np.inf)),
            longest,
        ])
        x = x[np.isfinite(x)]
        assert len(x) >= 10**6
        cells = cli._cells_12g(x)
        assert cells.shape == (len(x), 20) and cells.dtype == np.uint8
        # One ',' leads each cell and '%.12g' prints none, so the split is per cell.
        flat = cells.ravel()
        got = flat[flat != 0].tobytes().decode().split(",")
        want = (",%.12g" * len(x) % tuple(x.tolist())).split(",")
        assert got == want
        assert ["%.12g" % v for v in longest] == [
            "-2.22507385851e-308", "-1.23456789012e-100", "-9.99999999999e-300",
            "-1.79769313486e+308"]
        assert (cells[-len(longest):] != 0).all()

    def test_word_tables_are_04d_text(self):
        # '%04d' % w, the same with the trailing zeros NUL, then the sign and
        # zero words, as _cells_12g indexes them.
        words = cli._words()
        assert words.dtype == np.uint32 and not words.flags.writeable
        text = [bytes(w) for w in words.view(np.uint8).reshape(-1, 4)]
        want = [b"%04d" % w for w in range(10**4)]
        assert text[:10**4] == want
        assert text[10**4:2 * 10**4] == [w.rstrip(b"0").ljust(4, b"\0") for w in want]
        assert text[2 * 10**4:] == [b",\0" b"0.", b",-0.", b"\0\0\0\0", b"0\0\0\0",
                                    b"00\0\0", b"000\0"]

    @pytest.mark.parametrize("r", ["0", "0.3", repr(np.pi / 4)])
    def test_stdout_equals_the_out_file(self, r, tmp_path, capsys):
        # The points file is written in binary and stdout as text: the same bytes.
        argv = ["geometry", "--r", r, "--n-theta", "200", "--n-phi", "200"]
        out = tmp_path / "points.csv"
        assert main(argv + ["--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("# center=") and summary.count("\n") == 1
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes() + summary.encode()

    def test_unwritable_path_is_io_error(self, capsys):
        rc = main(["geometry", "--r", "0.1", "--n-theta", "3",
                   "--out", "/no/such/dir/p.csv"])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and "error" in err

    def test_closed_stdout_is_io_error(self, monkeypatch, capsys):
        # A reader that closed the pipe early, as `| head -1` does: stdout's write
        # raises BrokenPipeError, which is an I/O error, exit 3.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["geometry", "--r", "1e-6", "--n-theta", "3", "--n-phi", "3"]) == 3
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


# Counts numpy refuses to size before it allocates anything (2^64, and 2^63 - 1
# rows): a usage error naming the option, before any output. A count numpy would
# try to allocate is never run.
BIG, TOO_BIG = 2**63 - 1, 2**64
GRID_LIMIT = f"--n-theta * --n-phi must be <= {cli.MAX_COUNT}, got"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--steps", str(TOO_BIG)],
     f"--steps must be <= {cli.MAX_COUNT}, got {TOO_BIG}"),
    (["sweep", "--steps", str(BIG)], f"--steps must be <= {cli.MAX_COUNT}, got {BIG}"),
    (["sweep", "--steps", str(BIG), "--scale", "linear"],
     f"--steps must be <= {cli.MAX_COUNT}, got {BIG}"),
    (["geometry", "--r", "0.3", "--n-theta", str(TOO_BIG)],
     f"{GRID_LIMIT} {TOO_BIG} * 50"),
    (["geometry", "--r", "0.3", "--n-phi", str(TOO_BIG)],
     f"{GRID_LIMIT} 50 * {TOO_BIG}"),
])
def test_counts_numpy_cannot_size_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# An angle of -0 is 0: it printed r = -0, a -0 operator entry and eccentricity=-0.
@pytest.mark.parametrize("argv", [
    ["channel", "--r", "-0"],
    ["channel", "--r", "-0", "--mode", "invert"],
    ["channel", "--r=-0", "--mode", "choi"],  # argparse's path
    ["geometry", "--r", "-0", "--n-theta", "3", "--n-phi", "2"],
])
def test_negative_zero_angle_prints_as_zero(argv, capsys):
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert main([arg.replace("-0", "0") for arg in argv]) == 0
    assert got == capsys.readouterr().out


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["nosuch"]) == 2
    capsys.readouterr()


# Byte-exact CLI output recorded in tests/golden/. A refactor must leave it
# unchanged; a deliberate output change re-records it and says so.
GOLDEN_CASES = {
    "sweep.csv": ["sweep", "--steps", "12"],
    "sweep.json": ["sweep", "--steps", "12", "--format", "json"],
    **{
        f"channel_{mode}_r{tag}.txt": ["channel", "--r", r, "--mode", mode]
        for mode in ("choi", "kraus", "invert")
        for tag, r in (("0", "0"), ("0.3", "0.3"), ("pi4", repr(np.pi / 4)),
                       ("1e-6", "1e-6"))
    },
    **{
        f"channel_{mode}_a4.6.txt":
            ["channel", "--a", "4.6", "--omega", "0.1", "--mode", mode]
        for mode in ("choi", "kraus", "invert")
    },
    # Angles where sin^2 r and tan^2 r / 2 are subnormal, so halving or
    # doubling the Choi matrix is not exact: they pin its normalization.
    **{
        f"channel_{mode}_r5e-324.txt": ["channel", "--r", "5e-324", "--mode", mode]
        for mode in ("choi", "kraus", "invert")
    },
    "channel_invert_r1.922034831393248e-162.txt":
        ["channel", "--r", "1.922034831393248e-162", "--mode", "invert"],
    "sweep_linear.csv": ["sweep", "--steps", "12", "--scale", "linear"],
    "sweep_default.csv": ["sweep"],
    "sweep_linear_200.json":
        ["sweep", "--steps", "200", "--scale", "linear", "--format", "json"],
    # Exponent-form a, printed 0.5 and 1.0, and r near 0; a sweep whose qmid
    # moves in the 12th digit under S(dephased) - S(rho); the minimum table.
    "sweep_wide_a.json": ["sweep", "--omega", "20", "--a-min", "1e-7", "--a-max", "1e7",
                          "--steps", "41", "--format", "json"],
    "sweep_qmid_drift_500.csv": ["sweep", "--omega", "0.03089858164727607",
                                 "--a-min", "6.456787829242969",
                                 "--a-max", "1592.7885349839266", "--steps", "500"],
    "sweep_steps2.json": ["sweep", "--steps", "2", "--format", "json"],
}
GEOMETRY_ARGV = ["geometry", "--r", "0.3", "--n-theta", "4", "--n-phi", "4"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys):
    assert main(GOLDEN_CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# Larger geometry goldens, recorded like the one above: a points file
# `<name>_points.csv` and a summary line `<name>_summary.txt` each.
GEOMETRY_GRIDS = {
    "geometry_r0.3_37x53": ["geometry", "--r", "0.3", "--n-theta", "37",
                            "--n-phi", "53"],
    "geometry_rpi4_200x3": ["geometry", "--r", repr(np.pi / 4),
                            "--n-theta", "200", "--n-phi", "3"],
    "geometry_r0_2x2": ["geometry", "--r", "0", "--n-theta", "2", "--n-phi", "2"],
    # Few, long theta rows.
    "geometry_r0.3_2x61": ["geometry", "--r", "0.3", "--n-theta", "2", "--n-phi", "61"],
    # x and y print as 1, -1, 0, -0, 12-digit fractions and exponent forms.
    "geometry_r0_5x8": ["geometry", "--r", "0", "--n-theta", "5", "--n-phi", "8"],
}


def _check_geometry_golden(name, argv, tmp_path, capsys):
    points = (GOLDEN / f"{name}_points.csv").read_bytes()
    summary = (GOLDEN / f"{name}_summary.txt").read_bytes()
    out = tmp_path / "points.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == points
    assert capsys.readouterr().out.encode() == summary
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == points + summary


def test_golden_geometry(tmp_path, capsys):
    _check_geometry_golden("geometry", GEOMETRY_ARGV, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(GEOMETRY_GRIDS))
def test_golden_geometry_grids(name, tmp_path, capsys):
    _check_geometry_golden(name, GEOMETRY_GRIDS[name], tmp_path, capsys)


def test_parser_reuse_leaks_no_state(capsys):
    # One process, one parser: a usage error, --help, channel, geometry and
    # sweep, then the same calls in reverse order. Every output equals its
    # golden, or its first run where there is none.
    cli.build_parser.cache_clear()
    points = (GOLDEN / "geometry_points.csv").read_text()
    summary = (GOLDEN / "geometry_summary.txt").read_text()
    calls = [
        (["sweep", "--steps", "x"], 2, None),
        (["--help"], 0, None),
        (GOLDEN_CASES["channel_kraus_r0.3.txt"], 0,
         (GOLDEN / "channel_kraus_r0.3.txt").read_text()),
        (GEOMETRY_ARGV, 0, points + summary),
        (GOLDEN_CASES["sweep.csv"], 0, (GOLDEN / "sweep.csv").read_text()),
    ]
    first = {}
    for argv, code, golden in calls + calls[::-1]:
        assert main(list(argv)) == code
        out, err = capsys.readouterr()
        if golden is not None:
            assert out == golden
        assert first.setdefault(tuple(argv), (out, err)) == (out, err)
    assert "usage" in first[("sweep", "--steps", "x")][1]
    assert "sweep" in first[("--help",)][0]
    assert cli.build_parser.cache_info().misses == 1


# The argv shapes perfbench sends: every flag of a sweep, channel calls by angle
# and by acceleration, geometry grids, each with or without --out.
BENCH_ARGV = [
    ["sweep", "--omega", "0.1234", "--a-min", "0.05", "--a-max", "12.5", "--steps", "37",
     "--scale", "linear", "--format", "json", "--out", "sweep.out"],
    ["sweep", "--steps", "5", "--out", "sweep.out"],
    *(["channel", "--r", "0.3", "--mode", mode] for mode in ("kraus", "choi", "invert")),
    ["channel", "--a", "4.6", "--omega", "0.1", "--mode", "invert"],
    ["geometry", "--r", "0.3", "--n-theta", "10", "--n-phi", "10", "--out", "g.out"],
]


@pytest.mark.parametrize("argv", [*GOLDEN_CASES.values(), GEOMETRY_ARGV,
                                  *GEOMETRY_GRIDS.values(), *BENCH_ARGV])
def test_well_formed_argv_take_the_table_path(argv):
    args = cli._table_args(argv)
    assert args is not None
    # argparse also leaves the subcommand's parser, for main to report leftovers with.
    parsed = vars(cli.build_parser().parse_args(argv))
    assert vars(args) == {k: v for k, v in parsed.items() if k != "parser"}


def test_a_well_formed_call_builds_no_parser(capsys):
    cli.build_parser.cache_clear()
    assert main(GOLDEN_CASES["channel_kraus_r0.3.txt"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "channel_kraus_r0.3.txt").read_text()
    assert cli.build_parser.cache_info().misses == 0


def test_argv_of_any_iterable_is_parsed(capsys):
    # A generator is no list or tuple, so argparse reads it, as it always has.
    assert main(iter(GOLDEN_CASES["channel_kraus_r0.3.txt"])) == 0
    assert capsys.readouterr().out == (GOLDEN / "channel_kraus_r0.3.txt").read_text()
