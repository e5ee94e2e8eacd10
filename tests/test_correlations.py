from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler import correlations, qmat
from rindler.correlations import (
    bell_B,
    concurrence,
    decompose,
    dephased,
    f_max,
    measure_report,
    mutual_information,
    qmid,
    reconstruct,
    teleport_fidelity_mc,
)
from rindler.qmat import SIGMA_X, SIGMA_Y, SIGMA_Z, pure_qubit, tensor
from rindler.unruh import shared_state

R_GRID = np.linspace(0.0, np.pi / 4, 100)

BELL_PROJECTOR = np.zeros((4, 4), dtype=complex)
BELL_PROJECTOR[0, 0] = BELL_PROJECTOR[0, 3] = 0.5
BELL_PROJECTOR[3, 0] = BELL_PROJECTOR[3, 3] = 0.5


def random_qubit_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_two_qubit_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_unitary(rng, n=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_product_state(rng):
    return tensor(random_qubit_density(rng), random_qubit_density(rng))


def random_x_state(rng):
    p = rng.random(4) + 0.05
    p = p / p.sum()
    outer = np.sqrt(p[0] * p[3]) * rng.random() * np.exp(2j * np.pi * rng.random())
    inner = np.sqrt(p[1] * p[2]) * rng.random() * np.exp(2j * np.pi * rng.random())
    rho = np.diag(p).astype(complex)
    rho[0, 3], rho[3, 0] = outer, outer.conjugate()
    rho[1, 2], rho[2, 1] = inner, inner.conjugate()
    return rho


def brute_force_teleport_fidelity(rho, samples, seed):
    """Reference Monte-Carlo estimate: best of all 256 correction assignments."""
    rng = np.random.default_rng(seed)
    theta = np.arccos(1.0 - 2.0 * rng.random(samples))
    phi = 2.0 * np.pi * rng.random(samples)
    psi = np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
    )
    bell = np.array(
        [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]],
        dtype=complex,
    ) / np.sqrt(2.0)
    amp = np.einsum("kab,na->nkb", bell.conj(), psi)
    cond = np.einsum("nkb,brcs,nkc->nkrs", amp, rho.reshape(2, 2, 2, 2), amp.conj())
    corrections = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
    acc = np.empty((4, 4))
    for p_idx, pauli in enumerate(corrections):
        w = psi @ pauli.conj()
        acc[:, p_idx] = np.einsum("nr,nkrs,ns->nk", w.conj(), cond, w).real.mean(axis=0)
    best = max(
        sum(acc[k, choice[k]] for k in range(4))
        for choice in product(range(4), repeat=4)
    )
    return float(best)


def x_state_concurrence(rho):
    # closed form for states with only diagonal and anti-diagonal entries
    a = abs(rho[0, 3]) - np.sqrt(rho[1, 1].real * rho[2, 2].real)
    b = abs(rho[1, 2]) - np.sqrt(rho[0, 0].real * rho[3, 3].real)
    return 2 * max(0.0, a, b)


class TestDecompose:
    def test_bell_state(self):
        dec = decompose(BELL_PROJECTOR)
        assert_allclose(dec.local_a, np.zeros(3), atol=1e-14)
        assert_allclose(dec.local_b, np.zeros(3), atol=1e-14)
        assert_allclose(dec.gamma, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_shared_state_correlation_matrix(self):
        for r in R_GRID[::9]:
            dec = decompose(shared_state(r))
            c = np.cos(r)
            assert_allclose(dec.gamma, np.diag([c, -c, c * c]), atol=1e-12)
            gg = dec.gamma.T @ dec.gamma
            assert_allclose(gg, np.diag([c * c, c * c, c ** 4]), atol=1e-12)

    def test_maximally_mixed(self):
        dec = decompose(np.eye(4, dtype=complex) / 4)
        assert_allclose(dec.local_a, np.zeros(3), atol=1e-14)
        assert_allclose(dec.gamma, np.zeros((3, 3)), atol=1e-14)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            rho = random_two_qubit_density(rng)
            assert np.max(np.abs(reconstruct(decompose(rho)) - rho)) < 1e-12

    def test_entries_bounded(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            dec = decompose(random_two_qubit_density(rng))
            assert np.all(np.abs(dec.gamma) <= 1 + 1e-12)


class TestBellQuantity:
    def test_bell_state_reaches_two(self):
        assert bell_B(BELL_PROJECTOR) == pytest.approx(2.0, abs=1e-12)

    def test_shared_state_closed_form(self):
        for r in R_GRID:
            assert bell_B(shared_state(r)) == pytest.approx(
                2 * np.cos(r) ** 2, abs=1e-10
            )

    def test_asymptote_is_local_boundary(self):
        assert bell_B(shared_state(np.pi / 4)) == pytest.approx(1.0, abs=1e-10)

    def test_product_states_never_violate(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            assert bell_B(random_product_state(rng)) <= 1 + 1e-10

    def test_monotone_decreasing_in_mixing(self):
        vals = [bell_B(shared_state(r)) for r in R_GRID]
        assert np.all(np.diff(vals) <= 1e-12)


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(BELL_PROJECTOR) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            assert concurrence(random_product_state(rng)) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_shared_state_equals_cos(self):
        for r in R_GRID:
            assert concurrence(shared_state(r)) == pytest.approx(
                np.cos(r), abs=1e-10
            )

    def test_against_x_state_closed_form(self):
        rng = np.random.default_rng(113)
        for _ in range(40):
            rho = random_x_state(rng)
            assert concurrence(rho) == pytest.approx(
                x_state_concurrence(rho), abs=1e-10
            )

    def test_survives_infinite_acceleration(self):
        assert concurrence(shared_state(np.pi / 4)) > 0.7


class TestTeleportationFidelity:
    def test_shared_state_closed_form(self):
        for r in R_GRID:
            want = 0.5 * (1 + (2 * np.cos(r) + np.cos(r) ** 2) / 3)
            assert f_max(shared_state(r)) == pytest.approx(want, abs=1e-12)

    def test_perfect_resource(self):
        assert f_max(BELL_PROJECTOR) == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_value(self):
        assert f_max(shared_state(np.pi / 4)) == pytest.approx(
            0.8190355937288492, abs=1e-12
        )

    def test_stays_above_classical_threshold(self):
        for r in R_GRID[::9]:
            assert f_max(shared_state(r)) > 2 / 3


class TestMutualInformation:
    def test_bell_state(self):
        assert mutual_information(BELL_PROJECTOR) == pytest.approx(2.0, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(127)
        assert mutual_information(random_product_state(rng)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_asymptotic_shared_state(self):
        assert mutual_information(shared_state(np.pi / 4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            assert mutual_information(random_two_qubit_density(rng)) >= -1e-10


class TestQmid:
    def test_bell_state(self):
        # dephasing in the degenerate-marginal convention leaves the
        # classical half of the correlations, one bit of the two
        assert qmid(BELL_PROJECTOR) == pytest.approx(1.0, abs=1e-12)

    def test_dephased_bell_state_is_classical_mixture(self):
        got = dephased(BELL_PROJECTOR)
        assert_allclose(got, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            assert qmid(random_product_state(rng)) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_asymptotic_shared_state(self):
        assert qmid(shared_state(np.pi / 4)) == pytest.approx(
            0.6887218755408671, abs=1e-12
        )

    def test_positive_on_the_sweep(self):
        for r in R_GRID[1:]:
            assert qmid(shared_state(r)) > 0


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize(
        "measure", [bell_B, concurrence, f_max, mutual_information]
    )
    def test_invariant(self, measure):
        rng = np.random.default_rng(139)
        for _ in range(15):
            rho = random_two_qubit_density(rng)
            u = tensor(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert measure(rotated) == pytest.approx(measure(rho), abs=1e-9)


class TestTeleportFidelityMc:
    def test_perfect_resource_is_exact(self):
        got = teleport_fidelity_mc(BELL_PROJECTOR, 20000, seed=0)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_useless_resource_gives_half(self):
        got = teleport_fidelity_mc(np.eye(4, dtype=complex) / 4, 20000, seed=0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_for_shared_state(self):
        rho = shared_state(np.pi / 4)
        got = teleport_fidelity_mc(rho, 100000, seed=0)
        assert got == pytest.approx(f_max(rho), abs=0.005)
        assert got <= f_max(rho) + 0.005

    def test_seed_determinism(self):
        rho = shared_state(0.5)
        a = teleport_fidelity_mc(rho, 5000, seed=42)
        b = teleport_fidelity_mc(rho, 5000, seed=42)
        c = teleport_fidelity_mc(rho, 5000, seed=43)
        assert a == b
        assert a != c

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            teleport_fidelity_mc(BELL_PROJECTOR, 0)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("r", [0.0, 0.3, np.pi / 4])
    def test_equals_exhaustive_correction_search(self, r, seed):
        rng = np.random.default_rng(seed)
        states = (shared_state(r), random_two_qubit_density(rng), random_x_state(rng))
        for rho in states:
            got = teleport_fidelity_mc(rho, 3000, seed)
            assert got == brute_force_teleport_fidelity(rho, 3000, seed)


class TestMeasureReport:
    def test_fields_match_the_measures(self):
        rho = shared_state(0.4)
        rep = measure_report(rho)
        assert rep.bell_B == pytest.approx(bell_B(rho), abs=1e-14)
        assert rep.concurrence == pytest.approx(concurrence(rho), abs=1e-14)
        assert rep.f_max == pytest.approx(f_max(rho), abs=1e-14)
        assert rep.qmid == pytest.approx(qmid(rho), abs=1e-14)
        assert rep.mutual_information == pytest.approx(
            mutual_information(rho), abs=1e-14
        )

    # Eigensolves per public call: the input once (its validation, reused
    # for S(AB) and sqrt(rho)), each marginal once (entropy and dephasing
    # basis), plus gamma^T gamma, the Wootters matrix and the dephased
    # state with its two marginals, as each call needs them.
    @pytest.mark.parametrize(
        "measure, solves",
        [
            pytest.param(measure_report, 8, id="measure_report"),
            pytest.param(concurrence, 2, id="concurrence"),
            pytest.param(mutual_information, 3, id="mutual_information"),
            pytest.param(qmid, 6, id="qmid"),
        ],
    )
    def test_validates_once_and_shares_spectra(self, monkeypatch, measure, solves):
        solved, checked = [], []
        eig, check = qmat.eig_hermitian, qmat._checked_eig

        def counting_eig(m, *args, **kwargs):
            solved.append(np.array(m))
            return eig(m, *args, **kwargs)

        def counting_check(m, name):
            checked.append(name)
            return check(m, name)

        for module in (qmat, correlations):
            monkeypatch.setattr(module, "eig_hermitian", counting_eig)
            monkeypatch.setattr(module, "_checked_eig", counting_check)
        rho = shared_state(0.3)
        for _ in range(2):
            solved.clear()
            checked.clear()
            measure(rho)
            assert len(solved) == solves
            assert sum(np.array_equal(m, rho) for m in solved) == 1
            assert checked.count("rho") == 1

    def test_subnormal_entries(self):
        # A valid state the solver once failed on: its rotation divided by
        # the modulus of a subnormal off-diagonal entry.
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[2, 2], rho[0, 2] = 0.64, 0.36, 0.48
        rho[0, 1], rho[1, 2] = 1.42e-308, 1.07e-308
        rep = measure_report(rho + np.triu(rho, 1).T)
        assert rep.bell_B == pytest.approx(1.0, abs=1e-12)
        assert rep.concurrence == pytest.approx(0.0, abs=1e-12)
        assert rep.mutual_information == pytest.approx(0.0, abs=1e-12)

    def test_stack_gives_a_report_of_arrays(self):
        rng = np.random.default_rng(151)
        states = [shared_state(0.3), random_two_qubit_density(rng), BELL_PROJECTOR]
        rep = measure_report(np.array(states))
        for field in rep:
            assert isinstance(field, np.ndarray) and field.shape == (3,)
        for i, rho in enumerate(states):
            assert tuple(field[i] for field in rep) == measure_report(rho)

    @pytest.mark.parametrize("measure", [bell_B, concurrence, f_max, qmid,
                                         mutual_information, decompose, dephased])
    def test_single_state_measures_reject_stacks(self, measure):
        with pytest.raises(ValueError, match="expected a two-qubit state"):
            measure(np.array([BELL_PROJECTOR, BELL_PROJECTOR]))

    def test_ranges(self):
        rng = np.random.default_rng(149)
        for _ in range(10):
            rep = measure_report(random_two_qubit_density(rng))
            assert 0 <= rep.concurrence <= 1
            assert 0 <= rep.f_max <= 1
            assert rep.qmid >= -1e-10
            assert 0 <= rep.bell_B <= 2 + 1e-10


def test_pure_qubit_matches_bloch_angles():
    psi = pure_qubit(np.pi / 2, 0.0)
    assert_allclose(psi, [1, 1] / np.sqrt(2), atol=1e-15)
