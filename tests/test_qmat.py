import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler.qmat import (
    IDENTITY_2,
    JacobiConvergenceError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    partial_trace,
    pure_qubit,
    sqrt_psd,
    tensor,
    validate_density_matrix,
    von_neumann_entropy,
)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def random_psd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T


def random_density(rng, n):
    m = random_psd(rng, n)
    return m / np.trace(m)


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brute_partial_trace(rho, dims, traced):
    # independent oracle: explicit index contraction, no reshape tricks
    keep = [i for i in range(len(dims)) if i != traced]
    keep_dim = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((keep_dim, keep_dim), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if row[traced] != col[traced]:
                continue
            i = int(np.ravel_multi_index(row, dims))
            j = int(np.ravel_multi_index(col, dims))
            ik = int(np.ravel_multi_index([row[k] for k in keep],
                                          [dims[k] for k in keep]))
            jk = int(np.ravel_multi_index([col[k] for k in keep],
                                          [dims[k] for k in keep]))
            out[ik, jk] += rho[i, j]
    return out


class TestTensor:
    def test_identity(self):
        assert_allclose(tensor(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_diagonal_kron(self):
        assert_allclose(tensor(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_block_placement(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        got = tensor(p0, SIGMA_X)
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = SIGMA_X
        assert_allclose(got, want)

    def test_ordering_against_index_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4))
        got = tensor(a, b)
        for j in range(2):
            for k in range(4):
                for jj in range(2):
                    for kk in range(4):
                        assert got[4 * j + k, 4 * jj + kk] == pytest.approx(
                            a[j, jj] * b[k, kk]
                        )

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            tensor(np.eye(4), np.eye(4))


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert_allclose(partial_trace(bell, [2, 2], 1), IDENTITY_2 / 2, atol=1e-14)
        assert_allclose(partial_trace(bell, [2, 2], 0), IDENTITY_2 / 2, atol=1e-14)

    def test_product_factorization(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho_a = random_density(rng, 2)
            rho_b = random_density(rng, 2)
            prod = tensor(rho_a, rho_b)
            assert_allclose(partial_trace(prod, [2, 2], 1), rho_a, atol=1e-12)
            assert_allclose(partial_trace(prod, [2, 2], 0), rho_b, atol=1e-12)

    @pytest.mark.parametrize("traced", [0, 1, 2])
    def test_three_qubit_against_brute_force(self, traced):
        rng = np.random.default_rng(17 + traced)
        rho = random_density(rng, 8)
        got = partial_trace(rho, [2, 2, 2], traced)
        assert_allclose(got, brute_partial_trace(rho, [2, 2, 2], traced),
                        atol=1e-12)
        assert np.trace(got) == pytest.approx(1.0)

    def test_mixed_dims_against_brute_force(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 8)
        for traced in (0, 1):
            got = partial_trace(rho, [2, 4], traced)
            assert_allclose(got, brute_partial_trace(rho, [2, 4], traced),
                            atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, [2, 4], 0)
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, [2, 2], 2)


class TestEigHermitian:
    def test_sigma_z(self):
        dec = eig_hermitian(SIGMA_Z)
        assert_allclose(dec.eigenvalues, [1, -1], atol=1e-13)

    def test_sigma_x(self):
        dec = eig_hermitian(SIGMA_X)
        assert_allclose(dec.eigenvalues, [1, -1], atol=1e-13)
        # phase fixing pins the leading entry real positive
        assert_allclose(dec.eigenvectors[:, 0], [1, 1] / np.sqrt(2), atol=1e-13)
        assert_allclose(dec.eigenvectors[:, 1], [1, -1] / np.sqrt(2), atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_random_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            m = random_hermitian(rng, n)
            dec = eig_hermitian(m)
            lam, v = dec.eigenvalues, dec.eigenvectors
            assert_allclose(v @ np.diag(lam) @ v.conj().T, m, atol=1e-9)
            assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-9)
            assert np.all(np.diff(lam) <= 1e-13)
            # cross-check the spectrum against numpy's solver
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert_allclose(lam, ref, atol=1e-10)

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(41)
        m = random_hermitian(rng, 4)
        dec = eig_hermitian(m)
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.max(np.abs(m @ v - lam * v)) < 1e-9

    def test_already_diagonal(self):
        dec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(dec.eigenvalues, [3, 2, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_stack_equals_single_solves(self, n):
        rng = np.random.default_rng(200 + n)
        stack = np.array([[random_hermitian(rng, n) for _ in range(3)]
                          for _ in range(2)])
        stack[1, 2] = np.diag(np.arange(n) % 2)
        dec = eig_hermitian(stack)
        assert dec.eigenvalues.shape == (2, 3, n)
        assert dec.eigenvectors.shape == (2, 3, n, n)
        for idx in np.ndindex(2, 3):
            one = eig_hermitian(stack[idx])
            assert dec.eigenvalues[idx].tobytes() == one.eigenvalues.tobytes()
            assert dec.eigenvectors[idx].tobytes() == one.eigenvectors.tobytes()

    def test_stack_reports_non_convergence(self):
        rng = np.random.default_rng(7)
        stack = np.array([np.diag([1.0, 2.0, 3.0, 4.0]), random_hermitian(rng, 4)])
        with pytest.raises(JacobiConvergenceError):
            eig_hermitian(stack, max_sweeps=1)

    def test_subnormal_off_diagonal_entries(self):
        # g / |g| overflows for a subnormal g; such entries count as zero.
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[2, 2], rho[0, 2] = 0.64, 0.36, 0.48
        rho[0, 1], rho[1, 2] = 1.42e-308, 1.07e-308
        rho = rho + np.triu(rho, 1).T
        lam = eig_hermitian(rho).eigenvalues
        assert_allclose(lam, np.linalg.eigvalsh(rho)[::-1], rtol=0, atol=1e-12)


class TestSqrtPsd:
    def test_identity(self):
        assert_allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-13)

    def test_diagonal(self):
        assert_allclose(sqrt_psd(np.diag([4.0, 1.0, 0.0, 0.0])),
                        np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-13)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(7)
        for n in (2, 4):
            for _ in range(10):
                m = random_psd(rng, n)
                s = sqrt_psd(m)
                assert_allclose(s @ s, m, atol=1e-8)
                assert np.max(np.abs(s - s.conj().T)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.diag([1.0, -1e-4]))


class TestEntropy:
    def test_pure_state(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = pure_qubit(np.pi * rng.random(), 2 * np.pi * rng.random())
            rho = np.outer(psi, psi.conj())
            assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(IDENTITY_2 / 2) == pytest.approx(1.0)

    def test_known_binary_value(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(
            0.8112781244591328, abs=1e-13
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(u @ rho @ u.conj().T)
            assert s2 == pytest.approx(s1, abs=1e-10)


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(29)
        rho = random_density(rng, 4)
        assert validate_density_matrix(rho) is not None

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            validate_density_matrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(3, dtype=complex) / 3)
