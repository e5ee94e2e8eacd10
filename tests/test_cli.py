import json
from pathlib import Path

import numpy as np
import pytest

from rindler import channels, cli, correlations, qmat
from rindler.cli import main
from rindler.qmat import JacobiConvergenceError
from rindler.unruh import UnruhParams

SWEEP_HEADER = "a,r,bell_half,concurrence,f_max,qmid"
GOLDEN = Path(__file__).parent / "golden"


def read_lines(path):
    return path.read_text().splitlines()


def parse_sweep(path):
    lines = read_lines(path)
    assert lines[0].startswith("#")
    assert lines[1] == SWEEP_HEADER
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])


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

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["sweep", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == SWEEP_HEADER
        assert len(lines) == 5

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
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_unwritable_path_is_io_error(self, capsys):
        rc = main(["sweep", "--steps", "3", "--out", "/no/such/dir/x.csv"])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    # The whole table is one stacked measure_report: 8 eigensolves per
    # call, each on a stack of one matrix per row.
    @pytest.mark.parametrize("steps", [3, 200])
    def test_one_batched_solve_per_stage(self, monkeypatch, capsys, steps):
        solved = []
        eig = qmat.eig_hermitian

        def counting(m, *args, **kwargs):
            solved.append(np.shape(m))
            return eig(m, *args, **kwargs)

        for module in (qmat, correlations):
            monkeypatch.setattr(module, "eig_hermitian", counting)
        assert main(["sweep", "--steps", str(steps)]) == 0
        assert len(solved) == 8
        assert all(shape[0] == steps for shape in solved)
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
        eig = qmat.eig_hermitian

        def counting(m, *args, **kwargs):
            solved.append(m)
            return eig(m, *args, **kwargs)

        for module in (qmat, channels, cli):
            monkeypatch.setattr(module, "eig_hermitian", counting, raising=False)
        for _ in range(2):
            solved.clear()
            assert main(["channel", "--r", "0.3", "--mode", "invert"]) == 0
            assert len(solved) == 1
        capsys.readouterr()

    def test_invert_at_rest_is_cp(self, capsys):
        assert main(["channel", "--r", "0", "--mode", "invert"]) == 0
        out = capsys.readouterr().out
        assert "verdict: CP" in out

    def test_acceleration_input_matches_angle_input(self, capsys):
        assert main(["channel", "--a", "4.6", "--omega", "0.1"]) == 0
        from_accel = capsys.readouterr().out
        r = UnruhParams(4.6, 0.1).r
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
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
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

    def test_identity_limit_summary(self, capsys):
        assert main(["geometry", "--r", "0", "--n-theta", "2",
                     "--n-phi", "2"]) == 0
        out = capsys.readouterr().out
        assert "volume_fraction=1" in out
        assert "eccentricity=0" in out

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
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
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
    "sweep_linear.csv": ["sweep", "--steps", "12", "--scale", "linear"],
    "sweep_default.csv": ["sweep"],
    "sweep_linear_200.json":
        ["sweep", "--steps", "200", "--scale", "linear", "--format", "json"],
}
GEOMETRY_ARGV = ["geometry", "--r", "0.3", "--n-theta", "4", "--n-phi", "4"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys):
    assert main(GOLDEN_CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_golden_geometry(tmp_path, capsys):
    points = (GOLDEN / "geometry_points.csv").read_bytes()
    summary = (GOLDEN / "geometry_summary.txt").read_bytes()
    out = tmp_path / "points.csv"
    assert main(GEOMETRY_ARGV + ["--out", str(out)]) == 0
    assert out.read_bytes() == points
    assert capsys.readouterr().out.encode() == summary
    assert main(GEOMETRY_ARGV) == 0
    assert capsys.readouterr().out.encode() == points + summary
