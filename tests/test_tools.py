"""Smoke test of tools/cli_corpus.py, the byte-identity corpus.

The corpus turns any exception, of a library call or of a CLI run, into an
`error` record, so an API the tool calls could vanish without a dump
failing; these checks catch it.
"""

import importlib.util
import itertools
import json
import subprocess
import sys
import warnings
from pathlib import Path

import rindler

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)


def test_corpus_is_the_same_on_every_call():
    assert cli_corpus.corpus() == cli_corpus.corpus()


def test_library_records_of_the_first_states_hold_no_error():
    first = 8 * len(cli_corpus.LIB_FUNCTIONS)
    records = list(itertools.islice(cli_corpus._lib_records(rindler), first))
    assert len(records) == first
    assert [rec for rec in records if "error" in rec] == []


def test_solver_records_at_every_scale_hold_no_error():
    # 1e3 and 1e7 raised JacobiConvergenceError while the solver's stopping
    # rule was an absolute 1e-13; at 1e-200 the squares of its entries underflow.
    records = list(cli_corpus._solver_records(rindler))
    assert len(records) == 2 * cli_corpus.SOLVER_MATRICES * len(cli_corpus.SOLVER_SCALES)
    assert [rec for rec in records if "error" in rec] == []


def test_near_separable_records_hold_no_error():
    records = list(cli_corpus._near_separable_records(rindler))
    assert len(records) == 3 * cli_corpus.NEAR_SEPARABLE + len(cli_corpus.X_STATE_GAPS)
    assert [rec for rec in records if "error" in rec] == []
    assert [len(rec["values"]) for rec in records] == [5] * len(records)


def test_out_file_keeps_its_line_ends(tmp_path):
    def main(argv):
        Path(argv[-1]).write_bytes(b"a\r\nb\rc\n")
        return 0

    assert cli_corpus._run(main, ["x"], tmp_path / "out")["file"] == "a\r\nb\rc\n"


def test_a_crash_is_the_run_result(tmp_path):
    def main(argv):
        print("partial")
        raise IndexError("index -1 is out of bounds")

    rec = cli_corpus._run(main, ["x"], None)
    assert (rec["rc"], rec["stdout"], rec["error"]) == (
        None, "partial\n", "IndexError: index -1 is out of bounds")
    assert "error" not in cli_corpus._run(lambda argv: 0, ["x"], tmp_path / "out")



def test_every_run_prints_its_warnings(monkeypatch):
    # pytest records warnings instead of printing them; this showwarning prints
    # to the stderr the run redirects, as Python's default one does.
    def show(message, category, filename, lineno, file=None, line=None):
        print(f"{category.__name__}: {message}", file=sys.stderr)

    def main(argv):
        for _ in range(2):
            warnings.warn("a repeated warning", UserWarning)
        return 0

    monkeypatch.setattr(warnings, "showwarning", show)
    twice = "UserWarning: a repeated warning\n" * 2
    assert [cli_corpus._run(main, ["x"], None)["stderr"] for _ in range(3)] == [twice] * 3


def test_compare_lists_one_sided_records_apart(tmp_path, capsys):
    def run(argv, stdout):
        return {"argv": argv, "to_file": False, "rc": 0, "stdout": stdout,
                "stderr": "", "file": None}

    def lib(name, value):
        return {"lib": name, "values": [repr(value)]}

    before = [run(["a"], "1\n"), run(["b"], "2\n"), run(["gone"], ""),
              lib("measure_report #0", 0.5), lib("measure_report #1", 0.25)]
    after = [run(["a"], "1\n"), run(["b"], "3\n"), run(["new"], ""),
             lib("measure_report #0", 0.75), lib("measure_report #2", 0.25)]
    paths = []
    for name, records in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(rec) + "\n" for rec in records))

    assert cli_corpus.compare(*paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == [
        "b", "lib measure_report #0",
        "only in before: gone", "only in before: lib measure_report #1",
        "only in after: new", "only in after: lib measure_report #2",
    ]
    assert lines[6] == "4 argv, 4 runs, 1 differ, 1 only in before, 1 only in after"
    assert lines[7] == ("lib measure_report: 3 records, 1 differ, 1 only in before,"
                        " 1 only in after, max |change| 0.25")
    assert cli_corpus.compare(paths[0], paths[0]) == 0


def test_closed_stdout_ends_compare_quietly(tmp_path):
    # `compare A B | head`: the reader closes the pipe before the listing ends.
    runs = [{"argv": [str(i)], "to_file": False, "rc": 0, "stdout": "",
             "stderr": "", "file": None} for i in range(20000)]
    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    before.write_text("".join(json.dumps(rec) + "\n" for rec in runs))
    after.write_text("".join(json.dumps({**rec, "rc": 1}) + "\n" for rec in runs))
    child = subprocess.Popen([sys.executable, str(TOOL), "compare", str(before),
                              str(after)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (1, b"")
