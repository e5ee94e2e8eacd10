"""Results and CPU use that do not depend on how many threads OpenBLAS runs,
and results that do not depend on its kernel.

No product in the package goes to BLAS: every matrix product and
contraction is numpy's own einsum loop, and the spheroid report is closed
forms of one angle. So no OpenBLAS thread count or kernel can change a bit.
Each test runs a child interpreter on this checkout's `src`.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from rindler import shared_state, spheroid_report, teleport_fidelity_mc
from rindler.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# Two geometry goldens' argv.
GEOMETRY_ARGV = [
    ["geometry", "--r", "0.3", "--n-theta", "37", "--n-phi", "53"],
    ["geometry", "--r", repr(np.pi / 4), "--n-theta", "200", "--n-phi", "3"],
]


def _child(code: str, **env: str) -> str:
    # tests/ as well: the child imports test_cli's golden argv.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, check=True)
    return done.stdout


def fingerprint() -> dict:
    """The repr of every golden spheroid field and teleport estimate, and the
    sha256 of the stdout of GEOMETRY_ARGV."""
    spheroids = json.loads((GOLDEN / "spheroid_volume.json").read_text())["cases"]
    teleport = json.loads((GOLDEN / "teleport_mc.json").read_text())
    random_state = np.array([[complex(*z) for z in row] for row in teleport["random_state"]])
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    states = {"random": random_state, "bell": bell}
    digests = []
    for argv in GEOMETRY_ARGV:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    return {
        "spheroid": [repr(spheroid_report(float(case["r"]))) for case in spheroids],
        "teleport": [repr(teleport_fidelity_mc(
            states[case["state"]] if case.get("state") in states
            else shared_state(case["r"]), case["samples"], case["seed"]))
            for case in teleport["cases"]],
        "geometry": digests,
    }


def test_results_do_not_depend_on_blas_threads():
    """A child process under OPENBLAS_NUM_THREADS=1 reproduces this process's
    spheroid reports, teleport estimates and geometry output bit for bit.

    When numpy's BLAS is not OpenBLAS, the variable is ignored and the test
    passes trivially; so it does when this process runs one thread too.
    """
    code = (f"import json, runpy; print(json.dumps("
            f"runpy.run_path({str(Path(__file__))!r})['fingerprint']()))")
    assert json.loads(_child(code, OPENBLAS_NUM_THREADS="1")) == fingerprint()


# CPU time over wall time around the calls: about 2 on two cores while an
# OpenBLAS worker spins after a threaded product, about 1 on one core. The
# workers also spin for a while after they start, at numpy's import, so the
# child waits half a second for them to sleep before it starts the clocks.
CPU_PROBE = """
import time
from rindler import shared_state, spheroid_report, teleport_fidelity_mc
rho = shared_state(0.3)
time.sleep(0.5)
cpu, wall = time.process_time(), time.perf_counter()
for seed in range(200):
    teleport_fidelity_mc(rho, 1000, seed)
for _ in range(20):
    spheroid_report(0.3)
print(time.process_time() - cpu, time.perf_counter() - wall)
"""


def test_library_calls_run_on_one_core():
    cpu, wall = map(float, _child(CPU_PROBE).split())
    assert cpu <= 1.3 * wall, (cpu, wall)


def teleport_reprs() -> list:
    """The repr of 300 seeded estimates at 1 to 20 000 samples, on random states
    built by einsum: an `@` would hand the states themselves to the kernel."""
    rng, reprs = np.random.default_rng(30), []
    for seed in range(300):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = np.einsum("ij,kj->ik", a, a.conj())
        samples = int(rng.integers(1, 20001))
        reprs.append(repr(teleport_fidelity_mc(m / np.trace(m), samples, seed)))
    return reprs


def golden_outputs() -> dict:
    """The stdout of every golden argv of test_cli, keyed by its argv, and the
    values of fingerprint() and teleport_reprs()."""
    import test_cli

    outputs = {}
    for argv in [*test_cli.GOLDEN_CASES.values(), test_cli.GEOMETRY_ARGV,
                 *test_cli.GEOMETRY_GRIDS.values()]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        outputs[" ".join(argv)] = out.getvalue()
    return {**outputs, **fingerprint(), "teleport_reprs": teleport_reprs()}


def test_results_do_not_depend_on_the_blas_kernel():
    """A child under OPENBLAS_CORETYPE=Prescott, a kernel without FMA, prints
    the bytes of every golden argv and reproduces the spheroid and teleport
    goldens and 300 seeded teleport estimates as this process does.

    When numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, the variable is ignored
    and the test passes trivially.
    """
    code = (f"import json, runpy; print(json.dumps("
            f"runpy.run_path({str(Path(__file__))!r})['golden_outputs']()))")
    got, want = json.loads(_child(code, OPENBLAS_CORETYPE="Prescott")), golden_outputs()
    assert got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []
