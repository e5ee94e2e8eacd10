import json
import math
import tracemalloc
from itertools import product
from pathlib import Path

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
from rindler.qmat import SIGMA_X, SIGMA_Y, SIGMA_Z, pure_qubit
from rindler.unruh import shared_state

R_GRID = np.linspace(0.0, np.pi / 4, 100)
GOLDEN = Path(__file__).parent / "golden"

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
    return np.kron(random_qubit_density(rng), random_qubit_density(rng))


def random_x_state(rng):
    p = rng.random(4) + 0.05
    p = p / p.sum()
    outer = np.sqrt(p[0] * p[3]) * rng.random() * np.exp(2j * np.pi * rng.random())
    inner = np.sqrt(p[1] * p[2]) * rng.random() * np.exp(2j * np.pi * rng.random())
    rho = np.diag(p).astype(complex)
    rho[0, 3], rho[3, 0] = outer, outer.conjugate()
    rho[1, 2], rho[2, 1] = inner, inner.conjugate()
    return rho


# The sender's Bell states as amplitudes B[k, a, b] of sum_ab B[k, a, b] |ab>,
# and the receiver's corrections, written out apart from the kernel's tables.
TELEPORT_BELL = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]],
    dtype=complex,
) / np.sqrt(2.0)
TELEPORT_CORRECTIONS = np.array([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_VECTOR = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])


def haar_inputs(samples, seed):
    """The seeded inputs psi[n], drawn as the estimator draws them: n_z uniform,
    and the azimuth at node floor(4096 u) of a uniform grid of 4096."""
    rng = np.random.default_rng(seed)
    theta = np.arccos(1.0 - 2.0 * rng.random(samples))
    phi = 2.0 * np.pi / 4096 * np.floor(4096 * rng.random(samples))
    return np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
    )


def brute_force_teleport_fidelity(rho, samples, seed):
    """Reference Monte-Carlo estimate: best of all 256 correction assignments."""
    psi = haar_inputs(samples, seed)
    amp = np.einsum("kab,na->nkb", TELEPORT_BELL.conj(), psi)
    cond = np.einsum("nkb,brcs,nkc->nkrs", amp, rho.reshape(2, 2, 2, 2), amp.conj())
    acc = np.empty((4, 4))
    for p_idx, pauli in enumerate(TELEPORT_CORRECTIONS):
        w = psi @ pauli.conj()
        acc[:, p_idx] = np.einsum("nr,nkrs,ns->nk", w.conj(), cond, w).real.mean(axis=0)
    return float(best_assignment(acc.T))


def best_assignment(table):
    """Best sum, in outcome order, of table[p, k] over all 256 choices of p per k."""
    return max(
        sum(table[choice[k], k] for k in range(4))
        for choice in product(range(4), repeat=4)
    )


def teleport_quartic_form(rho):
    """T[p, k, a, b, c, d]: the fidelity of correction p after outcome k is
    sum T psi_a conj(psi_b) psi_c conj(psi_d)."""
    return np.einsum("kab,kec,brcs,pfr,pds->pkaedf", TELEPORT_BELL.conj(), TELEPORT_BELL,
                     rho.reshape(2, 2, 2, 2), TELEPORT_CORRECTIONS,
                     TELEPORT_CORRECTIONS.conj())


def haar_teleport_table(rho):
    """Exact Haar mean [p, k] of each fidelity, from the fourth moment
    E[psi_a conj(psi_b) psi_c conj(psi_d)] = (d_ab d_cd + d_ad d_cb) / 6."""
    t = teleport_quartic_form(rho)
    return ((np.einsum("pkaacc->pk", t) + np.einsum("pkacca->pk", t)) / 6.0).real


def entropy_bits(p):
    p = np.clip(p, 0.0, None)
    return -np.sum(p * np.log2(p, where=p > 0, out=np.zeros_like(p)), axis=-1)


def mid_over_alice_bases(rho, directions):
    """MID I(rho) - I(dephased) for each unit vector n in directions, numpy
    alone: Alice measures along n, Bob in his marginal's eigenbasis."""
    rho4 = rho.reshape(2, 2, 2, 2)
    rho_a, rho_b = np.einsum("ajbj->ab", rho4), np.einsum("iaib->ab", rho4)
    local = entropy_bits(np.linalg.eigvalsh(rho_a)) + entropy_bits(np.linalg.eigvalsh(rho_b))
    info = local - entropy_bits(np.linalg.eigvalsh(rho))
    alice = np.linalg.eigh(np.einsum("ni,iab->nab", directions, PAULI_VECTOR))[1]
    bob = np.linalg.eigh(rho_b)[1]
    basis = np.einsum("nac,bd->nabcd", alice, bob).reshape(-1, 4, 4)
    p = np.einsum("nki,kl,nli->ni", basis.conj(), rho, basis).real
    pairs = p.reshape(-1, 2, 2)
    dephased_info = (entropy_bits(pairs.sum(axis=2)) + entropy_bits(pairs.sum(axis=1))
                     - entropy_bits(p))
    return info - dephased_info


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

    def test_shared_state_stack_closed_form(self):
        # One stack of 2001 angles: a = 0, b = (0, 0, -sin^2 r) and
        # gamma = diag(cos r, -cos r, cos^2 r).
        r = np.linspace(0.0, np.pi / 4, 2001)
        dec = correlations._decompose(shared_state(r))
        c, zero = np.cos(r), np.zeros_like(r)
        assert_allclose(dec.local_a, 0.0, rtol=0, atol=1e-15)
        assert_allclose(dec.local_b, np.stack([zero, zero, -np.sin(r) ** 2], axis=-1),
                        rtol=0, atol=1e-15)
        gamma = np.zeros((len(r), 3, 3))
        gamma[:, 0, 0], gamma[:, 1, 1], gamma[:, 2, 2] = c, -c, c * c
        assert_allclose(dec.gamma, gamma, rtol=0, atol=1e-15)

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

    def test_shared_state_closed_form(self):
        # Both marginals of the shared state are diagonal, Alice's exactly
        # I/2, so the dephased state is its diagonal and, with c = cos r and
        # s = sin r, qmid = H(c^2/2, s^2/2, 1/2) - H((1 + c^2)/2, s^2/2).
        def entropy(*probs):
            p = np.array(probs)
            return -np.sum(p * np.log2(p, where=p > 0, out=np.zeros_like(p)), axis=0)

        r = np.linspace(0.0, np.pi / 4, 2001)
        c2, s2 = np.cos(r) ** 2, np.sin(r) ** 2
        want = entropy(c2 / 2, s2 / 2, np.full_like(r, 0.5)) - entropy((1 + c2) / 2, s2 / 2)
        got = measure_report(np.array([shared_state(x) for x in r])).qmid
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shared_state_is_the_least_mid_over_alice_bases(self):
        # Alice's marginal is I/2, so any basis of hers is an eigenbasis. The
        # computational one that qmid falls back to is the basis along
        # gamma e_B, e_B the Bloch direction of Bob's eigenbasis, and no
        # seeded random basis of Alice's gives a smaller MID.
        directions = np.random.default_rng(157).normal(size=(200, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for r in np.linspace(0.0, np.pi / 4, 50):
            rho = shared_state(r)
            gamma = np.einsum("ab,ijba->ij", rho,
                              np.einsum("iac,jbd->ijabcd", PAULI_VECTOR,
                                        PAULI_VECTOR).reshape(3, 3, 4, 4)).real
            bob = np.linalg.eigh(np.einsum("iaib->ab", rho.reshape(2, 2, 2, 2)))[1]
            e_b = np.einsum("a,iab,b->i", bob[:, 0].conj(), PAULI_VECTOR, bob[:, 0]).real
            along = gamma @ e_b
            assert along[0] == along[1] == 0.0 and along[2] != 0.0
            got = qmid(rho)
            assert got == pytest.approx(
                mid_over_alice_bases(rho, [along / np.linalg.norm(along)])[0], abs=1e-12)
            assert got <= mid_over_alice_bases(rho, directions).min() + 1e-12


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize(
        "measure", [bell_B, concurrence, f_max, mutual_information]
    )
    def test_invariant(self, measure):
        rng = np.random.default_rng(139)
        for _ in range(15):
            rho = random_two_qubit_density(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
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

    @pytest.mark.parametrize(
        "samples", [-1, 0.5, 2.7, float("inf"), float("-inf"), float("nan")]
    )
    def test_rejects_bad_sample_counts(self, samples):
        with pytest.raises(ValueError, match="samples must be a whole number >= 1"):
            teleport_fidelity_mc(BELL_PROJECTOR, samples)

    def test_accepts_integral_float_samples(self):
        rho = shared_state(0.3)
        assert teleport_fidelity_mc(rho, 5.0) == teleport_fidelity_mc(rho, 5)

    # The 3000-sample cases keep their ids; the others straddle the kernel's
    # sample blocks of 8192, or what were an older kernel's blocks of 2048,
    # or hold a few samples.
    EXHAUSTIVE_CASES = [
        pytest.param(r, seed, 3000, id=f"{r}-{seed}")
        for seed in (0, 7, 2024) for r in (0.0, 0.3, np.pi / 4)
    ] + [
        pytest.param(r, seed, n, id=f"{r}-{seed}-{n}")
        for r, seed, n in [(0.3, 0, 2047), (0.0, 7, 2048),
                           (np.pi / 4, 2024, 2049), (0.3, 7, 6161),
                           (0.3, 0, 8191), (0.0, 7, 8192), (np.pi / 4, 2024, 8193)]
    ] + [
        pytest.param(r, seed, n, id=f"{r}-{seed}-{n}")
        for n in range(1, 9) for seed in (0, 7, 2024) for r in (0.0, 0.3, np.pi / 4)
    ]

    @staticmethod
    def _states(r, seed):
        rng = np.random.default_rng(seed)
        return shared_state(r), random_two_qubit_density(rng), random_x_state(rng)

    @pytest.mark.parametrize("r, seed, samples", EXHAUSTIVE_CASES)
    def test_equals_exhaustive_correction_search(self, r, seed, samples):
        # Bit for bit, on the kernel's own table of mean fidelities.
        for rho in self._states(r, seed):
            table = correlations._teleport_table(rho, samples, seed)
            assert teleport_fidelity_mc(rho, samples, seed) == best_assignment(table)

    @pytest.mark.parametrize("r, seed, samples", EXHAUSTIVE_CASES)
    def test_matches_per_sample_reference(self, r, seed, samples):
        # The moment contraction sums in another order than a per-sample
        # pass; the two have differed by at most 6.2e-15.
        for rho in self._states(r, seed):
            got = teleport_fidelity_mc(rho, samples, seed)
            assert got == pytest.approx(
                brute_force_teleport_fidelity(rho, samples, seed), abs=1e-13)

    def test_haar_oracle_equals_f_max_on_shared_states(self):
        for r in np.linspace(0.0, np.pi / 4, 201):
            rho = shared_state(r)
            exact = sum(haar_teleport_table(rho).max(axis=0))
            assert exact == pytest.approx(f_max(rho), abs=1e-14)

    def test_signs_under_haar_moments_equal_the_haar_oracle(self):
        # Haar's M / N is diag(1, 1/3, 1/3, 1/3); the sign table, contracted with
        # the Pauli table under it, is the oracle's exact mean to roundoff.
        rng = np.random.default_rng(30)
        haar = np.diag([1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
        for n in range(200):
            r = rng.random() * np.pi / 4
            rho = random_two_qubit_density(rng) if n % 2 else shared_state(r)
            got = np.einsum("pkij,ij->pk", correlations._TELEPORT_SIGNS,
                            correlations._pauli_table(rho) * haar)
            assert np.abs(got - haar_teleport_table(rho)).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_within_five_standard_errors_of_haar_oracle(self, seed):
        # f_max is only an upper bound on a general state; the exact Haar
        # mean is what the estimate converges to.
        samples = 20000
        rho = random_two_qubit_density(np.random.default_rng(seed))
        exact_table = haar_teleport_table(rho)
        exact = sum(exact_table.max(axis=0))
        assert exact <= f_max(rho) + 1e-12
        # Spread of the per-sample fidelity under the best corrections.
        best = exact_table.argmax(axis=0)
        t = teleport_quartic_form(rho)[best, np.arange(4)].sum(axis=0)
        psi = haar_inputs(samples, seed)
        per_sample = np.einsum("abcd,na,nb,nc,nd->n", t, psi, psi.conj(), psi,
                               psi.conj(), optimize=True).real
        error = per_sample.std(ddof=1) / np.sqrt(samples)
        assert abs(teleport_fidelity_mc(rho, samples, seed) - exact) < 5 * error

    def test_memory_holds_the_inputs_not_the_fidelities(self):
        # The two rows of uniform draws, 16 bytes a sample (1.6 MB), plus one
        # block's temporaries, about 1.3 MB however many samples; a (4, n)
        # array of Bloch vectors would add 3.2 MB, and an (n, 4, 4) fidelity
        # table 12.8 MB. The first call is not traced: it imports modules.
        rho = shared_state(0.3)
        teleport_fidelity_mc(rho, 1, 1)
        tracemalloc.start()
        try:
            teleport_fidelity_mc(rho, 100000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("a, b", [(a, b) for a in range(5) for b in range(5 - a)])
    def test_azimuth_grid_has_the_circle_moments(self, a, b):
        # The estimate reads moments of (cos phi, sin phi) of degree 4 at most, and
        # on the 4096 nodes each is the uniform circle's: 0 unless a and b are even,
        # else (a - 1)!! (b - 1)!! / (a + b)!!.
        cos, sin = correlations._TURN_COS_SIN.T.tolist()
        mean = math.fsum(c**a * s**b for c, s in zip(cos, sin)) / len(cos)
        double_factorial = {-1: 1, 0: 1, 1: 1, 2: 2, 3: 3, 4: 8}
        want = 0.0 if a % 2 or b % 2 else (
            double_factorial[a - 1] * double_factorial[b - 1] / double_factorial[a + b])
        assert abs(mean - want) <= 4 * np.finfo(float).eps

    def test_one_sample_reads_the_libm_node(self):
        # At one sample M is v v^T of the drawn input, with cos and sin of its
        # azimuth libm's at node floor(4096 u), bit for bit.
        rho = random_two_qubit_density(np.random.default_rng(29))
        table = correlations._pauli_table(rho)
        for seed in range(200):
            u_z, u_phi = np.random.default_rng(seed).random(2).tolist()
            n_z, angle = 1.0 - 2.0 * u_z, 2.0 * math.pi / 4096 * math.floor(4096 * u_phi)
            sin_theta = math.sqrt((1.0 - n_z) * (1.0 + n_z))
            v = np.array([1.0, sin_theta * math.cos(angle), sin_theta * math.sin(angle), n_z])
            want = np.einsum("pkij,ij->pk", correlations._TELEPORT_SIGNS,
                             table * np.outer(v, v))
            assert correlations._teleport_table(rho, 1, seed).tobytes() == want.tobytes()

    def test_golden_estimates(self):
        # repr of each estimate, recorded when the kernel took the azimuth from
        # its 4096-node table, in blocks of samples, and read the state's Pauli
        # table through the sign table.
        golden = json.loads((GOLDEN / "teleport_mc.json").read_text())
        states = {
            "random": np.array([[complex(*z) for z in row]
                                for row in golden["random_state"]]),
            "bell": BELL_PROJECTOR,
        }
        for case in golden["cases"]:
            rho = states.get(case["state"])
            if rho is None:
                rho = shared_state(case["r"])
            got = teleport_fidelity_mc(rho, case["samples"], case["seed"])
            assert repr(got) == case["estimate"], case


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
    # for S(AB) and sqrt(rho)), both marginals in one stacked solve (entropy
    # and dephasing basis), plus gamma^T gamma and the Wootters matrix, as
    # each call needs them. The dephased spectrum is diag(U^dag rho U), read
    # off without a solve, and dephasing keeps the marginals: on a full-rank
    # random state, whose dephased marginals differ from its own in the
    # last bits, the count is the same. The input's eigenvectors are solved
    # only where sqrt(rho) reads them, for the concurrence.
    @pytest.mark.parametrize(
        "measure, solves, vectors, rho",
        [
            pytest.param(measure_report, 4, True, shared_state(0.3), id="measure_report"),
            pytest.param(concurrence, 2, True, shared_state(0.3), id="concurrence"),
            pytest.param(mutual_information, 2, False, shared_state(0.3),
                         id="mutual_information"),
            pytest.param(qmid, 2, False, shared_state(0.3), id="qmid"),
            pytest.param(measure_report, 4, True,
                         random_two_qubit_density(np.random.default_rng(157)),
                         id="measure_report_full_rank"),
        ],
    )
    def test_validates_once_and_shares_spectra(self, monkeypatch, measure, solves,
                                               vectors, rho):
        solved, checked = [], []
        eig, check = qmat._jacobi, qmat._checked_eig

        def counting_eig(m, *args, **kwargs):
            solved.append(np.array(m))
            return eig(m, *args, **kwargs)

        def counting_check(m, name, *args, **kwargs):
            checked.append(name)
            dec = check(m, name, *args, **kwargs)
            assert (dec.eigenvectors is not None) == vectors
            return dec

        for module in (qmat, correlations):
            monkeypatch.setattr(module, "_jacobi", counting_eig)
            monkeypatch.setattr(module, "_checked_eig", counting_check)
        for _ in range(2):
            solved.clear()
            checked.clear()
            measure(rho)
            assert len(solved) == solves
            assert sum(np.array_equal(m, rho) for m in solved) == 1
            assert checked == ["rho"]

    # The callers that read only eigenvalues solve none of the input's
    # eigenvectors, and give the bits they gave with the full solve.
    @pytest.mark.parametrize("measure", [
        qmat.validate_density_matrix, qmat.von_neumann_entropy, decompose, bell_B, f_max,
        mutual_information, qmid, dephased, lambda rho: teleport_fidelity_mc(rho, 100),
    ])
    def test_eigenvalue_readers_solve_no_vectors(self, monkeypatch, measure):
        states = [shared_state(0.3), shared_state(0.0), np.eye(4) / 4,
                  random_two_qubit_density(np.random.default_rng(158))]
        eig, check = qmat._jacobi, qmat._checked_eig
        flags = []

        def run():
            out = [measure(rho) for rho in states]
            return [[np.asarray(x).tobytes() for x in (o if isinstance(o, tuple) else [o])]
                    for o in out]

        def recording_eig(m, vectors=True):
            if np.shape(m)[-1] == 4:
                flags.append(vectors)
            return eig(m, vectors)

        for module in (qmat, correlations):
            monkeypatch.setattr(module, "_checked_eig",
                                lambda m, name, vectors=True: check(m, name))
        full = run()
        for module in (qmat, correlations):
            monkeypatch.setattr(module, "_checked_eig", check)
            monkeypatch.setattr(module, "_jacobi", recording_eig)
        assert run() == full
        assert flags == [False] * len(states)

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

    def test_state_at_the_psd_tolerance_is_measured(self):
        # Validation admits eigenvalues down to -1e-10; this state's first
        # marginal has eigenvalue -1.8e-10 and is measured, not checked again.
        rho = np.diag([-9e-11, -9e-11, 0.5 + 9e-11, 0.5 + 9e-11]).astype(complex)
        rep = measure_report(rho)
        assert rep == (bell_B(rho), concurrence(rho), f_max(rho), qmid(rho),
                       mutual_information(rho))
        assert rep.concurrence == 0.0
        assert rep.qmid == pytest.approx(0.0, abs=1e-9)
        assert rep.mutual_information == pytest.approx(0.0, abs=1e-9)
        assert dephased(rho) == pytest.approx(rho, abs=1e-15)

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
