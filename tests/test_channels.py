import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler.channels import (
    ChoiMatrix,
    KrausMap,
    amplitude_damping,
    apply,
    apply_to_second,
    choi_matrix,
    completeness_defect,
    compose,
    inverse_unruh,
    is_cp,
    kraus_from_choi,
    unruh_kraus,
)
from rindler.qmat import eig_hermitian
from rindler.unruh import shared_state

R_GRID = np.linspace(0.0, np.pi / 4, 50)

BELL_PROJECTOR = np.zeros((4, 4), dtype=complex)
BELL_PROJECTOR[0, 0] = BELL_PROJECTOR[0, 3] = 0.5
BELL_PROJECTOR[3, 0] = BELL_PROJECTOR[3, 3] = 0.5


def random_density(rng, n=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_cptp_map(rng, n_terms=4):
    # stack a random isometry and slice it into Kraus blocks, so that
    # sum K^dag K = I holds by construction
    g = rng.normal(size=(2 * n_terms, 2)) + 1j * rng.normal(size=(2 * n_terms, 2))
    q, _ = np.linalg.qr(g)
    return KrausMap(np.ones(n_terms, dtype=int), q.reshape(n_terms, 2, 2))


class TestUnruhKraus:
    def test_rest_is_identity_channel(self):
        kmap = unruh_kraus(0.0)
        assert_allclose(kmap.ops[0], np.eye(2), atol=1e-15)
        assert_allclose(kmap.ops[1], np.zeros((2, 2)), atol=1e-15)

    @pytest.mark.parametrize(
        "r,diag0,lower",
        [(np.pi / 4, 1 / np.sqrt(2), 1 / np.sqrt(2)),
         (np.pi / 6, np.sqrt(3) / 2, 0.5)],
    )
    def test_operator_entries(self, r, diag0, lower):
        kmap = unruh_kraus(r)
        assert_allclose(kmap.ops[0], np.diag([diag0, 1.0]), atol=1e-15)
        want = np.zeros((2, 2))
        want[1, 0] = lower
        assert_allclose(kmap.ops[1], want, atol=1e-15)

    def test_completeness_on_grid(self):
        for r in R_GRID:
            assert completeness_defect(unruh_kraus(r)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            unruh_kraus(np.pi / 2)


class TestKrausMap:
    def test_rejects_empty_map(self):
        with pytest.raises(ValueError) as info:
            KrausMap([], [])
        assert str(info.value) == "Kraus stack shape (0,) is not (k >= 1, d, d)"

    @pytest.mark.parametrize("signs, ops, message", [
        pytest.param([], np.zeros((0, 2, 2)),
                     "Kraus stack shape (0, 2, 2) is not (k >= 1, d, d)",
                     id="empty stack"),
        pytest.param([1, 2], [np.eye(2)] * 2, "need 2 signs of +1 or -1, got [1, 2]",
                     id="sign 2"),
        pytest.param([1, 0.5], [np.eye(2)] * 2, "need 2 signs of +1 or -1, got [1.0, 0.5]",
                     id="sign 0.5"),
        pytest.param([1, -1, 1], [np.eye(2)] * 2,
                     "need 2 signs of +1 or -1, got [1, -1, 1]", id="sign count"),
        pytest.param([[1]], [np.eye(2)], "need 1 signs of +1 or -1, got [[1]]",
                     id="sign shape"),
        pytest.param([1], np.ones((1, 2, 3)),
                     "Kraus stack shape (1, 2, 3) is not (k >= 1, d, d)", id="non-square"),
        pytest.param([1], np.eye(2), "Kraus stack shape (2, 2) is not (k >= 1, d, d)",
                     id="one matrix"),
        pytest.param([1, 1], [np.eye(2), np.eye(3)],
                     "Kraus operators do not stack into one array", id="mixed dimension"),
    ])
    def test_input_messages(self, signs, ops, message):
        with pytest.raises(ValueError) as info:
            KrausMap(signs, ops)
        assert str(info.value) == message

    def test_fields_are_a_sign_vector_and_an_operator_stack(self):
        assert [f.name for f in dataclasses.fields(KrausMap)] == ["signs", "ops"]
        kmap = KrausMap([1.0, -1.0], [np.eye(2), np.zeros((2, 2))])
        assert kmap.signs.dtype == int and kmap.signs.tolist() == [1, -1]
        assert kmap.ops.dtype == complex and kmap.ops.shape == (2, 2, 2)
        assert kmap.dim == 2 and (kmap.signs < 0).any()


# Maps hold ndarray fields, so == is identity and the hash is the default one:
# equal-valued maps are distinct, and either class can key a dict or join a set.
@pytest.mark.parametrize("make", [
    pytest.param(lambda: unruh_kraus(0.3), id="KrausMap"),
    pytest.param(lambda: choi_matrix(unruh_kraus(0.3)), id="ChoiMatrix"),
])
def test_equality_is_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert a in {a} and b not in {a} and len({a, b, a}) == 2


class TestApply:
    def test_pure_state_action_matches_display(self):
        # input with off-diagonal e^{+i phi} cos(t/2) sin(t/2); the output
        # keeps the phase and scales the coherence by cos r
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = np.pi * rng.random()
            phi = 2 * np.pi * rng.random()
            r = (np.pi / 4) * rng.random()
            cs = np.cos(t / 2) * np.sin(t / 2)
            rho = np.array(
                [[np.cos(t / 2) ** 2, cs * np.exp(1j * phi)],
                 [cs * np.exp(-1j * phi), np.sin(t / 2) ** 2]]
            )
            got = apply(unruh_kraus(r), rho)
            c = np.cos(r)
            want = np.array(
                [[c ** 2 * np.cos(t / 2) ** 2, c * cs * np.exp(1j * phi)],
                 [c * cs * np.exp(-1j * phi), 1 - c ** 2 * np.cos(t / 2) ** 2]]
            )
            assert_allclose(got, want, atol=1e-12)

    def test_excited_state_is_fixed_point(self):
        p1 = np.diag([0.0, 1.0]).astype(complex)
        for r in R_GRID[::7]:
            assert_allclose(apply(unruh_kraus(r), p1), p1, atol=1e-14)

    def test_asymptotic_image_of_maximally_mixed(self):
        got = apply(unruh_kraus(np.pi / 4), np.eye(2, dtype=complex) / 2)
        assert_allclose(got, np.diag([0.25, 0.75]), atol=1e-14)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            rho = random_density(rng)
            r = (np.pi / 4) * rng.random()
            assert np.trace(apply(unruh_kraus(r), rho)).real == pytest.approx(
                1.0, abs=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(unruh_kraus(0.1), np.eye(4) / 4)


class TestApplyToSecond:
    def test_identity_map(self):
        ident = KrausMap([1], [np.eye(2)])
        assert_allclose(apply_to_second(ident, BELL_PROJECTOR), BELL_PROJECTOR)

    def test_channel_on_half_pair_gives_shared_state(self):
        for r in R_GRID:
            got = apply_to_second(unruh_kraus(r), BELL_PROJECTOR)
            assert np.max(np.abs(got - shared_state(r))) < 1e-12

    def test_inverse_restores_the_pair(self):
        for r in R_GRID[::5]:
            got = apply_to_second(inverse_unruh(r), shared_state(r))
            assert np.max(np.abs(got - BELL_PROJECTOR)) < 1e-10

    def test_product_state_changes_only_the_second_factor(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho_a, rho_b = random_density(rng), random_density(rng)
            kmap = random_cptp_map(rng)
            got = apply_to_second(kmap, np.kron(rho_a, rho_b))
            assert_allclose(got, np.kron(rho_a, apply(kmap, rho_b)), atol=1e-12)

    def test_ordering_against_index_oracle(self):
        # row index 2 * a + b: a labels the first qubit, b the second
        rng = np.random.default_rng(12)
        kmap = KrausMap([1, -1], [random_cptp_map(rng).ops[0],
                                  random_cptp_map(rng).ops[1]])
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = apply_to_second(kmap, rho)
        want = np.zeros((4, 4), dtype=complex)
        for sign, op in zip(kmap.signs, kmap.ops):
            for a, b, c, d, bb, dd in np.ndindex(2, 2, 2, 2, 2, 2):
                want[2 * a + b, 2 * c + d] += (
                    sign * op[b, bb] * rho[2 * a + bb, 2 * c + dd]
                    * np.conj(op[d, dd])
                )
        assert_allclose(got, want, atol=1e-12)

    def test_map_of_wrong_dimension_names_the_shapes(self):
        kmap = KrausMap([1], [np.eye(3)])
        with pytest.raises(ValueError, match=r"state shape \(4, 4\) does not "
                           r"match map dimension 9"):
            apply_to_second(kmap, BELL_PROJECTOR)


class TestChoiMatrix:
    def test_identity_channel(self):
        ident = KrausMap([1], [np.eye(2)])
        assert_allclose(choi_matrix(ident).matrix, BELL_PROJECTOR, atol=1e-14)

    def test_unruh_matrix_entries(self):
        for r in (0.2, np.pi / 4):
            c, s = np.cos(r), np.sin(r)
            want = np.zeros((4, 4))
            want[0, 0], want[0, 3], want[3, 0] = c * c, c, c
            want[1, 1], want[3, 3] = s * s, 1.0
            assert_allclose(choi_matrix(unruh_kraus(r)).matrix, want / 2, atol=1e-14)

    def test_trace_is_one(self):
        for r in R_GRID[::7]:
            assert np.trace(choi_matrix(unruh_kraus(r)).matrix).real == (
                pytest.approx(1.0, abs=1e-12)
            )

    def test_unruh_spectrum(self):
        for r in R_GRID[::7]:
            lam = eig_hermitian(choi_matrix(unruh_kraus(r)).matrix).eigenvalues
            want = [(1 + np.cos(r) ** 2) / 2, np.sin(r) ** 2 / 2, 0.0, 0.0]
            assert_allclose(lam, sorted(want, reverse=True), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ChoiMatrix(np.triu(np.ones((4, 4))))


class TestKrausFromChoi:
    def test_identity(self):
        ident = KrausMap([1], [np.eye(2)])
        got = kraus_from_choi(choi_matrix(ident))
        assert len(got.ops) == 1
        sign, op = got.signs[0], got.ops[0]
        assert sign == 1
        assert_allclose(op, np.eye(2), atol=1e-12)

    def test_unruh_extraction_is_exact(self):
        for r in R_GRID[1:]:
            got = kraus_from_choi(choi_matrix(unruh_kraus(r)))
            assert len(got.ops) == 2
            assert_allclose(got.ops[0], np.diag([np.cos(r), 1.0]),
                            atol=1e-10)
            want = np.zeros((2, 2))
            want[1, 0] = np.sin(r)
            assert_allclose(got.ops[1], want, atol=1e-10)

    def test_roundtrip_on_random_cptp_maps(self):
        rng = np.random.default_rng(19)
        basis = np.eye(2, dtype=complex)
        for _ in range(20):
            original = random_cptp_map(rng)
            recovered = kraus_from_choi(choi_matrix(original))
            assert completeness_defect(recovered) < 1e-9
            for j in range(2):
                for k in range(2):
                    ejk = np.outer(basis[j], basis[k])
                    assert np.max(
                        np.abs(apply(recovered, ejk) - apply(original, ejk))
                    ) < 1e-9


class TestIsCp:
    def test_unruh_is_cp(self):
        for r in R_GRID[::7]:
            verdict = is_cp(choi_matrix(unruh_kraus(r)))
            assert verdict.is_cp
            assert verdict.min_eigenvalue >= -1e-10

    def test_inverse_is_ncp_with_known_eigenvalue(self):
        choi = choi_matrix(inverse_unruh(np.pi / 6))
        verdict = is_cp(choi)
        assert not verdict.is_cp
        assert verdict.min_eigenvalue == pytest.approx(-1 / 6, abs=1e-12)

    def test_identity_is_cp(self):
        ident = KrausMap([1], [np.eye(2)])
        verdict = is_cp(choi_matrix(ident))
        assert verdict.is_cp
        assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


class TestAmplitudeDamping:
    def test_zero_damping_is_identity(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        assert_allclose(apply(amplitude_damping(0.0), rho), rho, atol=1e-14)

    def test_full_damping(self):
        rng = np.random.default_rng(37)
        rho = random_density(rng)
        got = apply(amplitude_damping(1.0), rho)
        assert_allclose(got, np.diag([0.0, 1.0]), atol=1e-12)

    def test_matches_unruh_at_sin_squared(self):
        rng = np.random.default_rng(43)
        for r in R_GRID[::5]:
            ad = amplitude_damping(np.sin(r) ** 2)
            uk = unruh_kraus(r)
            for _ in range(5):
                rho = random_density(rng)
                assert_allclose(apply(ad, rho), apply(uk, rho), atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            amplitude_damping(1.5)


class TestCompose:
    def test_damping_after_channel_closes_into_damping(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            gamma = rng.random()
            r = (np.pi / 4) * rng.random()
            merged = gamma * np.cos(r) ** 2 + np.sin(r) ** 2
            lhs = compose(amplitude_damping(gamma), unruh_kraus(r))
            rhs = compose(unruh_kraus(r), amplitude_damping(gamma))
            target = amplitude_damping(merged)
            for _ in range(5):
                rho = random_density(rng)
                want = apply(target, rho)
                assert_allclose(apply(lhs, rho), want, atol=1e-10)
                assert_allclose(apply(rhs, rho), want, atol=1e-10)

    def test_merged_strength_value(self):
        # gamma'' = 0.3 * cos^2(pi/6) + sin^2(pi/6) = 0.475
        rng = np.random.default_rng(53)
        rho = random_density(rng)
        lhs = compose(amplitude_damping(0.3), unruh_kraus(np.pi / 6))
        assert_allclose(
            apply(lhs, rho), apply(amplitude_damping(0.475), rho), atol=1e-12
        )

    def test_damping_semigroup(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            g1, g2 = rng.random(2)
            merged = g1 + g2 - g1 * g2
            both = compose(amplitude_damping(g1), amplitude_damping(g2))
            rho = random_density(rng)
            assert_allclose(
                apply(both, rho), apply(amplitude_damping(merged), rho),
                atol=1e-10,
            )

    def test_signed_composition_cancels(self):
        rng = np.random.default_rng(61)
        for r in (0.2, np.pi / 5):
            cancel = compose(inverse_unruh(r), unruh_kraus(r))
            assert (cancel.signs < 0).any()
            for _ in range(5):
                rho = random_density(rng)
                assert_allclose(apply(cancel, rho), rho, atol=1e-10)

    def test_dimension_mismatch(self):
        big = KrausMap([1], [np.eye(4)])
        with pytest.raises(ValueError):
            compose(big, unruh_kraus(0.1))


class TestInverseUnruh:
    def test_rest_is_identity(self):
        rng = np.random.default_rng(67)
        rho = random_density(rng)
        assert_allclose(apply(inverse_unruh(0.0), rho), rho, atol=1e-14)

    def test_operator_entries(self):
        inv = inverse_unruh(np.pi / 6)
        assert inv.signs[0] == 1
        assert inv.signs[1] == -1
        assert_allclose(inv.ops[0], np.diag([2 / np.sqrt(3), 1.0]),
                        atol=1e-14)
        want = np.zeros((2, 2))
        want[1, 0] = np.tan(np.pi / 6)
        assert_allclose(inv.ops[1], want, atol=1e-14)

    def test_signed_completeness_on_grid(self):
        for r in R_GRID:
            assert completeness_defect(inverse_unruh(r)) < 1e-10

    def test_undoes_the_channel_on_random_pure_states(self):
        rng = np.random.default_rng(71)
        r = np.pi / 5
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            restored = apply(inverse_unruh(r), apply(unruh_kraus(r), rho))
            assert np.max(np.abs(restored - rho)) < 1e-9

    def test_trace_preserved_on_half_pair(self):
        for r in R_GRID[::7]:
            out = apply_to_second(inverse_unruh(r), BELL_PROJECTOR)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_half_pair_output_equals_state_normalized_choi(self):
        for r in R_GRID[::7]:
            out = apply_to_second(inverse_unruh(r), BELL_PROJECTOR)
            half = choi_matrix(inverse_unruh(r)).matrix
            assert_allclose(out, half, atol=1e-12)

    def test_choi_spectrum_closed_form(self):
        for r in R_GRID[1:]:
            lam = eig_hermitian(
                choi_matrix(inverse_unruh(r)).matrix
            ).eigenvalues
            big = (3 + np.cos(2 * r)) / (4 * np.cos(r) ** 2)
            want = np.array([big, 0.0, 0.0, -np.tan(r) ** 2 / 2])
            assert_allclose(lam, want, atol=1e-10)
            assert np.sum(lam < -1e-10) == 1
