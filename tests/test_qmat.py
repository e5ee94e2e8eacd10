import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler import qmat
from rindler.channels import ChoiMatrix
from rindler.correlations import measure_report, teleport_fidelity_mc
from rindler.geometry import surface_grid
from rindler.qmat import (
    IDENTITY_2,
    JacobiConvergenceError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _jacobi,
    eig_hermitian,
    partial_trace,
    pure_qubit,
    sqrt_psd,
    validate_density_matrix,
    von_neumann_entropy,
)
from rindler.unruh import shared_state


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
            prod = np.kron(rho_a, rho_b)
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

    # Each dimension follows the count rule (whole, at least 1; an integral float
    # is whole) and the index is one of range(len(dims)); anything else fails with
    # the package's ValueError, not inside numpy.
    @pytest.mark.parametrize("rho, dims, traced, error", [
        (np.zeros((0, 0)), [0, 3], 0, "subsystem dimension must be a whole number >= 1"),
        (np.zeros((0, 0)), [2, 0], 1, "subsystem dimension must be a whole number >= 1"),
        (np.diag([0.1, 0.2, 0.3, 0.4]), [2, 2], 1.5, "traced index 1.5 out of range"),
        (np.diag([0.1, 0.2, 0.3, 0.4]), [2, 2], np.nan, "traced index nan out of range"),
        (np.diag([0.1, 0.2, 0.3, 0.4]), [2.0, 2.0], 0, None),
        (np.diag([0.1, 0.2, 0.3, 0.4]), [2, 2], 1.0, None),
    ], ids=["zero-dim", "zero-last-dim", "fractional-index", "nan-index", "float-dims",
            "float-index"])
    def test_arguments_follow_the_count_rule(self, rho, dims, traced, error):
        if error is None:
            want = partial_trace(rho, [int(d) for d in dims], int(traced))
            assert partial_trace(rho, dims, traced).tobytes() == want.tobytes()
        else:
            with pytest.raises(ValueError, match=error):
                partial_trace(rho, dims, traced)


def sort_by_vectors(lam, v):
    """The solver's general order of one solve, column by column in Python.

    Each column is phase-fixed so its first entry above 1e-12 in modulus
    is real and positive, then columns are ordered by -lam, then by the
    (re, im) of their entries, top row first.
    """
    cols = []
    for col in v.T:
        first = np.argmax(np.abs(col) > 1e-12)
        cols.append(col * (col[first].conj() / np.abs(col[first])))
    order = sorted(range(len(lam)), key=lambda j: (
        -lam[j], *[part for z in cols[j] for part in (z.real, z.imag)]))
    return lam[order], np.stack([cols[j] for j in order], axis=1)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_eigenvectors_are_phase_fixed(self, n):
        # The tie-break compares phase-fixed vectors: the first entry of each
        # column above 1e-12 in modulus is real (to roundoff) and positive.
        rng = np.random.default_rng(300 + n)
        stack = np.array([random_hermitian(rng, n) for _ in range(5)])
        for v in eig_hermitian(stack).eigenvectors:
            first = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(n)]
            assert np.all(np.abs(first.imag) < 1e-15) and np.all(first.real > 0.0)

    # Diagonal stacks never rotate: their vectors stay the identity, and tied
    # eigenvalues go highest column first. That is the order the general sort
    # gives identity columns, kept here as reference. The solver works on
    # (m + m^dag) / 2, a complex division that turns a -0 diagonal into +0.
    @pytest.mark.parametrize("diagonals", [
        [[0.0, -0.0], [-0.0, 0.0], [1.0, 1.0], [0.5, -0.5]],
        [[0.0, -0.0, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25], [-0.0, -0.0, 0.0, -0.0],
         [0.5, -0.5, 0.5, -0.0]],
        [[0.25, -0.0, 0.25, 0.0, -0.5, 0.0, 0.25, -0.0]],
    ])
    def test_unrotated_stack_keeps_the_general_order(self, diagonals):
        diagonals = np.array(diagonals)
        dec = eig_hermitian(np.eye(diagonals.shape[-1]) * diagonals[:, None, :])
        for lam, got_lam, got_v in zip(diagonals, *dec):
            ref_lam, ref_v = sort_by_vectors(lam + 0.0, np.eye(len(lam), dtype=complex))
            assert np.array_equal(got_lam.view(np.int64), ref_lam.view(np.int64))
            assert np.array_equal(got_v.view(np.int64), ref_v.view(np.int64))

    def test_stack_reports_non_convergence(self, monkeypatch):
        rng = np.random.default_rng(7)
        stack = np.array([np.diag([1.0, 2.0, 3.0, 4.0]), random_hermitian(rng, 4)])
        monkeypatch.setattr(qmat, "_MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError, match="after 1 sweeps"):
            eig_hermitian(stack)

    # The stopping rule is relative to each matrix's norm. Under the absolute 1e-13
    # it had before, no rotation reached it on entries of about 100 and more:
    # these seeded matrices raised JacobiConvergenceError after 100 sweeps.
    @pytest.mark.parametrize("scale, n", [(100.0, 8), (300.0, 4), (1e3, 2), (1e7, 8)])
    def test_large_entries_converge(self, scale, n):
        rng = np.random.default_rng(500 + n)
        stack = np.array([random_hermitian(rng, n) for _ in range(20)])
        lam = eig_hermitian(scale * stack).eigenvalues
        ref = np.linalg.eigvalsh(stack)[..., ::-1]
        assert_allclose(lam / scale, ref, rtol=0, atol=1e-13)

    def test_tiny_off_diagonal_entries_rotate(self):
        # Under the absolute 1e-13 this matrix was taken as diagonal: [0, 0].
        lam = eig_hermitian(np.array([[0, 1e-14], [1e-14, 0]])).eigenvalues
        assert_allclose(lam, [1e-14, -1e-14], rtol=1e-15, atol=0)

    # The stopping rule measures each matrix over its largest |entry|. On the raw
    # squares a matrix below about 1e-154 counted as converged at once, as if
    # diagonal: 4.3e-206 [[1, 1], [1, 1]] gave [4.3e-206, 4.3e-206]. Above about
    # 1e150 the squares overflowed, with the same result.
    @pytest.mark.parametrize("scale", [4.3e-206, 1e-300, 1e200, 1e300])
    def test_entries_of_any_scale_rotate(self, scale):
        lam = eig_hermitian(scale * np.ones((2, 2))).eigenvalues
        assert_allclose(lam, [2.0 * scale, 0.0], rtol=1e-15, atol=1e-15 * scale)

    def test_subnormal_matrices_count_as_diagonal(self):
        # Entries below the smallest normal float count as zero, as the rotation
        # leaves them; so does the zero matrix. Both converge without a rotation.
        lam = eig_hermitian(1e-323 * np.ones((2, 2))).eigenvalues
        assert lam.tolist() == [1e-323, 1e-323]
        assert eig_hermitian(np.zeros((2, 2))).eigenvalues.tolist() == [0.0, 0.0]

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

    def test_entries_near_100(self):
        # ||m|| ~ 1e3; it raised JacobiConvergenceError while the solver's stopping
        # rule was an absolute 1e-13.
        m = 100.0 * random_psd(np.random.default_rng(2), 4)
        root = sqrt_psd(m)
        assert_allclose(root @ root, m, rtol=0, atol=1e-11)

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

    def test_clamp_boundary(self):
        # -INPUT_TOL times the trace is the most negative eigenvalue still clamped as
        # roundoff. The trace of diag(1 + tol, -tol) rounds to 1, and a power of two
        # scales it exactly, so the floor is -tol * scale itself.
        tol = qmat.INPUT_TOL
        for scale in (1.0, 2.0**40, 2.0**-60):
            top, low = (1.0 + tol) * scale, -tol * scale
            assert top + low == scale and np.nextafter(low, -np.inf) + top == scale
            assert_allclose(sqrt_psd(np.diag([top, low])),
                            np.diag([np.sqrt(top), 0.0]), atol=0)
            with pytest.raises(ValueError, match="not PSD"):
                sqrt_psd(np.diag([top, np.nextafter(low, -np.inf)]))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_rank_deficient_matrices_of_any_scale_are_roots(self, n):
        # s G G^dag with G of shape (n, n - 1): one exact zero eigenvalue, which the
        # solve leaves as roundoff of about n eps s ||G||^2. An absolute -1e-8 floor
        # rejected many of these from s = 1e7 up.
        rng = np.random.default_rng(41 + n)
        for _ in range(10):
            g = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
            gg = np.einsum("ij,kj->ik", g, g.conj())  # exactly Hermitian
            for s in (1e-200, 1e-8, 1.0, 1e8, 1e9, 1e10, 1e11, 1e12):
                root = sqrt_psd(s * gg)
                assert np.abs(root @ root - s * gg).max() <= 1e-12 * s * np.abs(gg).max()

    def test_rejects_a_small_matrix_far_below_its_floor(self):
        # -1e-9 is a thousandth of the spectrum: no roundoff, at any scale.
        with pytest.raises(ValueError, match="not PSD, eigenvalue -1e-09"):
            sqrt_psd(1e-6 * np.diag([1.0, -1e-3]))

    def test_stack_equals_the_roots_one_at_a_time(self):
        rng = np.random.default_rng(17)
        for n in (2, 4):
            stack = np.stack([random_psd(rng, n) for _ in range(5)] + [np.eye(n)])
            want = np.stack([sqrt_psd(m) for m in stack])
            assert np.array_equal(sqrt_psd(stack).view(np.int64), want.view(np.int64))

    # The first matrix whose least eigenvalue is below -INPUT_TOL times its trace
    # is named.
    @pytest.mark.parametrize("bad", [0, 2])
    def test_stack_names_the_first_non_psd_matrix(self, bad):
        stack = np.stack([np.diag([1.0, 0.5])] * 4)
        stack[bad], stack[3] = np.diag([1.0, -0.25]), np.diag([1.0, -0.5])
        with pytest.raises(ValueError) as info:
            sqrt_psd(stack)
        assert str(info.value) == "matrix is not PSD, eigenvalue -0.25"


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

    # The shape is checked before Hermiticity and trace, which would
    # otherwise fail inside numpy on these inputs.
    @pytest.mark.parametrize("m", [np.ones((3, 4)), np.ones(4) / 4])
    def test_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="expected a square matrix"):
            von_neumann_entropy(m)

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

    # One matrix, not a stack; a non-square one fails the shared shape rule.
    @pytest.mark.parametrize("m, message", [
        (np.stack([np.eye(4, dtype=complex) / 4] * 3),
         "rho must be one matrix, got shape (3, 4, 4)"),
        (np.ones(4) / 4, "rho must be one matrix, got shape (4,)"),
        (np.ones((4, 2)) / 4, "expected a square matrix, got shape (4, 2)"),
        (np.ones((3, 4)), "rho has unsupported dimension 3"),
        (np.zeros((0, 0), dtype=complex), "rho has unsupported dimension 0"),
    ])
    def test_shape_messages(self, m, message):
        with pytest.raises(ValueError) as info:
            validate_density_matrix(m)
        assert str(info.value) == message


def _lopsided(n):
    # The maximally mixed state with one off-diagonal entry not mirrored.
    m = np.eye(n, dtype=complex) / n
    m[0, 1] = 1e-3
    return m


# Every Hermitian-input check shares one rule; each caller names its input,
# as von_neumann_entropy does when handed a stack.
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: eig_hermitian(_lopsided(2)),
                     "matrix is not Hermitian within 1e-10", id="eig_hermitian"),
        pytest.param(lambda: measure_report(_lopsided(4)),
                     "rho is not Hermitian within 1e-10", id="measure_report"),
        pytest.param(lambda: von_neumann_entropy(_lopsided(2)),
                     "entropy input is not Hermitian within 1e-10",
                     id="von_neumann_entropy"),
        pytest.param(lambda: ChoiMatrix(_lopsided(4)),
                     "Choi matrix is not Hermitian within 1e-10", id="ChoiMatrix"),
        pytest.param(lambda: eig_hermitian(np.ones((3, 4))),
                     "expected a square matrix, got shape (3, 4)", id="square"),
        pytest.param(lambda: von_neumann_entropy(np.stack([IDENTITY_2 / 2] * 2)),
                     "entropy input must be one matrix, got shape (2, 2, 2)",
                     id="entropy of a stack"),
    ],
)
def test_input_check_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Every public count, with the name and least value its message gives.
COUNT_CALLS = [
    pytest.param(lambda n: teleport_fidelity_mc(shared_state(0.3), n), "samples", 1,
                 id="teleport_fidelity_mc"),
    pytest.param(lambda n: surface_grid(0.3, n, 2), "n_theta", 2, id="n_theta"),
    pytest.param(lambda n: surface_grid(0.3, 2, n), "n_phi", 2, id="n_phi"),
    pytest.param(lambda n: partial_trace(np.eye(2), [n, 2], 0), "subsystem dimension", 1,
                 id="partial_trace"),
]


# A count past sys.maxsize, the longest array numpy can index, fails in the count
# check with its own ValueError, before anything is sized. Only 2^64 is drawn:
# a count numpy would try to allocate is never run.
@pytest.mark.parametrize("call, name, least", COUNT_CALLS)
def test_counts_past_sys_maxsize_are_not_whole(call, name, least):
    with pytest.raises(ValueError) as info:
        call(2**64)
    assert str(info.value) == (f"{name} must be a whole number >= {least} and"
                               f" <= {sys.maxsize}, got 18446744073709551616")


# A value that compares with no number fails the same rule, not with a TypeError
# from inside it; the message shows the value's repr.
@pytest.mark.parametrize("value", ["3", "200", None, 3 + 0j, 200j], ids=repr)
@pytest.mark.parametrize("call, name, least", COUNT_CALLS)
def test_non_numeric_counts_are_not_whole(call, name, least, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == (f"{name} must be a whole number >= {least} and"
                               f" <= {sys.maxsize}, got {value!r}")


# A stack of no matrices, or a matrix of no entries, fails the shape rule of every
# checked entry point with the package's own message, not inside a numpy reduction.
@pytest.mark.parametrize("shape", [(0, 2, 2), (0, 4, 4), (3, 0, 4, 4), (0, 0)])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(eig_hermitian, id="eig_hermitian"),
        pytest.param(sqrt_psd, id="sqrt_psd"),
        pytest.param(measure_report, id="measure_report"),
        pytest.param(von_neumann_entropy, id="von_neumann_entropy"),
    ],
)
def test_empty_stacks_are_rejected(call, shape):
    m = np.zeros(shape, dtype=complex)
    if call is measure_report and shape[-2:] != (4, 4):
        message = f"expected a two-qubit state, got shape {shape}"
    elif call is von_neumann_entropy and len(shape) > 2:
        message = f"entropy input must be one matrix, got shape {shape}"
    else:
        message = f"expected a non-empty matrix or stack, got shape {shape}"
    with pytest.raises(ValueError) as info:
        call(m)
    assert str(info.value) == message


# Past the checks, the solver itself takes an empty stack: nothing is unconverged,
# so it returns empty results at once instead of running out its sweeps.
@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("n", [2, 4])
def test_solver_returns_empty_results_for_an_empty_stack(n, vectors):
    assert qmat._unconverged(np.zeros((n, n, 0), dtype=complex), slice(None)) is None
    dec = _jacobi(np.zeros((0, n, n), dtype=complex), vectors=vectors)
    assert dec.eigenvalues.shape == (0, n)
    if vectors:
        assert dec.eigenvectors.shape == (0, n, n)
    else:
        assert dec.eigenvectors is None
