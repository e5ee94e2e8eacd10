"""Property-based checks of the algebraic laws the measures and maps obey.

Examples are derandomized, so every run draws the same inputs and tier-1
stays deterministic. States are built as A A^dag / Tr with a 4 x k
complex A, k = 1..4, so rank-deficient states (pure ones included) are
drawn as often as full-rank ones. Entries of A are multiples of 1/4:
exact zeros and exactly degenerate spectra, where eigenbasis choices and
spectrum floors act, come up often. The stack test also draws free
floats in [-1, 1], subnormal entries included.
"""

import functools
import io
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rindler.channels import (
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
from rindler.cli import COMMANDS, _cells_12g, _table_args, build_parser
from rindler import correlations, qmat
from rindler.correlations import (
    _PAULI_BASIS,
    _SIGMAS,
    _YY_SIGNS,
    DEGENERACY_GAP,
    _concurrence,
    _dephasing,
    _f_max,
    _information,
    bell_B,
    concurrence,
    decompose,
    dephased,
    f_max,
    measure_report,
    mutual_information,
    qmid,
)
from rindler.geometry import image_of_pure, surface_grid
from rindler.qmat import (
    PAULIS,
    EigenDecomposition,
    _dag,
    _entropy,
    _jacobi,
    _mm,
    _psd_root,
    _roundoff,
    eig_hermitian,
    partial_trace,
)
from rindler.unruh import shared_state

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

entries = st.integers(-4, 4).map(lambda n: n / 4.0)
free_entries = st.floats(-1.0, 1.0)
angles = st.floats(0.0, 2.0 * np.pi, allow_nan=False)
# Mixing angles r in [0, pi/4], both ends drawn explicitly.
mixing_angles = st.one_of(st.sampled_from([0.0, np.pi / 4]), st.floats(0.0, np.pi / 4))


@st.composite
def densities(draw, dim=4, elements=entries):
    k = draw(st.integers(1, dim))
    parts = draw(arrays(np.float64, (2, dim, k), elements=elements))
    a = parts[0] + 1j * parts[1]
    m = a @ a.conj().T
    tr = np.trace(m).real
    assume(tr > 1e-3)
    return m / tr


@st.composite
def qubit_unitaries(draw):
    # Z-Y-Z Euler angles reach every SU(2) element.
    alpha, beta, gamma = (draw(angles) for _ in range(3))

    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    ry = np.array([[np.cos(beta / 2), -np.sin(beta / 2)],
                   [np.sin(beta / 2), np.cos(beta / 2)]])
    return rz(alpha) @ ry @ rz(gamma)


@st.composite
def cptp_maps(draw):
    # Kraus operators are the 2x2 blocks of a random 2k x 2 isometry.
    k = draw(st.integers(1, 4))
    parts = draw(arrays(np.float64, (2, 2 * k, 2), elements=entries))
    a = parts[0] + 1j * parts[1]
    assume(np.linalg.matrix_rank(a, tol=1e-3) == 2)
    v, _ = np.linalg.qr(a)
    return KrausMap(np.ones(k, dtype=int), v.reshape(k, 2, 2))


# qmid is left out: its dephasing basis falls back to the computational one
# on degenerate marginals, so it is not invariant by construction.
@pytest.mark.parametrize("measure, tol", [
    (concurrence, 1e-5),
    (bell_B, 1e-9),
    (f_max, 1e-6),
    (mutual_information, 1e-9),
])
@PROPERTY
@given(rho=densities(), u=qubit_unitaries(), v=qubit_unitaries())
def test_local_unitary_invariance(measure, tol, rho, u, v):
    w = np.kron(u, v)
    assert measure(w @ rho @ w.conj().T) == pytest.approx(measure(rho), abs=tol)


@st.composite
def x_states(draw):
    # Entries on the diagonal and anti-diagonal only, or an exact product of diagonal
    # qubit states. Each coherence is a fraction of its bound, sqrt(rho00 rho33) or
    # sqrt(rho11 rho22), or the bound less a gap whose square, an eigenvalue of the
    # Wootters matrix, is 1e-16 to 1e-11.
    if draw(st.booleans()):
        p, q = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        return np.diag(np.kron([p, 1.0 - p], [q, 1.0 - q])).astype(complex)
    p = draw(arrays(np.float64, 4, elements=st.floats(0.0, 1.0)))
    assume(p.sum() > 1e-3)
    rho = np.diag(p / p.sum()).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        bound = np.sqrt(rho[i, i].real * rho[j, j].real)
        if draw(st.booleans()):
            size = bound * draw(st.floats(0.0, 1.0))
        else:
            size = max(bound - 10.0 ** draw(st.floats(-8.0, -5.5)), 0.0)
        rho[i, j] = size * np.exp(1j * draw(angles))
        rho[j, i] = rho[i, j].conjugate()
    return rho


@PROPERTY
@given(rho=x_states())
def test_concurrence_of_x_states_equals_the_closed_form(rho):
    # The roots of the Wootters spectrum are sqrt(rho00 rho33) +- |rho03| and
    # sqrt(rho11 rho22) +- |rho12|. A root whose square is within 8 roundoff floors F
    # of the state's spectrum may be judged zero or not, and moves C by at most
    # itself: no rule on the computed spectrum tells a square below F from 0 (a
    # computed zero reaches about F / 5). Every other C is the closed form within 1e-9.
    p = rho.diagonal().real
    outer, inner = np.sqrt(p[0] * p[3]), np.sqrt(p[1] * p[2])
    want = 2.0 * max(0.0, abs(rho[0, 3]) - inner, abs(rho[1, 2]) - outer)
    roots = np.abs([outer + abs(rho[0, 3]), outer - abs(rho[0, 3]),
                    inner + abs(rho[1, 2]), inner - abs(rho[1, 2])])
    slack = roots[roots * roots < 8.0 * _roundoff(eig_hermitian(rho).eigenvalues)].sum()
    assert abs(concurrence(rho) - want) <= 1e-9 + slack


@PROPERTY
@given(rho=densities())
def test_report_fields_equal_the_single_measures(rho):
    rep = measure_report(rho)
    assert rep.bell_B == bell_B(rho)
    assert rep.concurrence == concurrence(rho)
    assert rep.f_max == f_max(rho)
    assert rep.qmid == qmid(rho)
    assert rep.mutual_information == mutual_information(rho)


states = st.one_of(
    densities(),
    densities(elements=free_entries),
    st.floats(0.0, np.pi / 4).map(shared_state),
)


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(PROPERTY, max_examples=30)
@given(stack=st.lists(states, min_size=1, max_size=40))
def test_stack_entries_equal_single_calls(stack):
    rhos = np.array(stack)
    dec = eig_hermitian(rhos)
    rep = measure_report(rhos)
    for i, rho in enumerate(stack):
        one = eig_hermitian(rho)
        assert _same(dec.eigenvalues[i], one.eigenvalues)
        assert _same(dec.eigenvectors[i], one.eigenvectors)
        for stacked, single in zip(rep, measure_report(rho)):
            assert _same(stacked[i], single)


@st.composite
def hermitian_stacks(draw):
    # m + m^dag over lattice or free-float entries; some matrices keep only
    # a diagonal drawn from ties and exact +-0, so stacks may rotate in part,
    # wholly or not at all.
    n, k = draw(st.sampled_from([2, 3, 4, 8])), draw(st.integers(1, 6))
    parts = draw(arrays(np.float64, (2, k, n, n),
                        elements=draw(st.sampled_from([entries, free_entries]))))
    m = parts[0] + 1j * parts[1]
    m = m + m.conj().swapaxes(-1, -2)
    ties = st.sampled_from([0.0, -0.0, 0.5, -0.5])
    for i in range(k):
        if draw(st.booleans()):
            m[i] = np.diag(draw(arrays(np.float64, n, elements=ties)))
    return m


@PROPERTY
@given(m=hermitian_stacks(), k=st.floats(-250.0, 150.0))
@example(m=np.array([[[0, 1], [1, 0]]], dtype=complex), k=-14.0)
@example(m=np.array([[[0, 1], [1, 0]]], dtype=complex), k=3.0)
@example(m=np.array([[[1, 1], [1, 1]]], dtype=complex), k=-205.0)
@example(m=np.array([[[1, 1], [1, 1]]], dtype=complex), k=150.0)
def test_spectra_scale_with_the_matrix(m, k):
    # The solver stops at 1e-13 of each matrix's norm, measured over its largest
    # |entry|, so s m has s times m's spectrum within roundoff for every scale s
    # from 1e-250 to 1e150. Under an absolute 1e-13 the first example was taken
    # as diagonal and the second did not converge; on raw squares the third
    # underflowed and the fourth overflowed, and both were taken as diagonal.
    big = np.abs(m).max(axis=(-2, -1))[..., None]
    s = 10.0 ** k
    lam = eig_hermitian(m).eigenvalues
    # Roundoff bound 32 n eps max|m_ij|: 3000 random draws reached 8.4 n eps.
    # Entries below the smallest normal float count as zero, in m and in s m:
    # each moves the spectrum by less than that float, n TINY for all of them.
    n, tiny = m.shape[-1], np.finfo(float).tiny
    tol = 32 * n * np.finfo(float).eps * big + n * tiny * (1.0 + 1.0 / s)
    assert np.all(np.abs(eig_hermitian(s * m).eigenvalues / s - lam) <= tol)


@PROPERTY
@given(m=hermitian_stacks())
def test_spectra_only_solve_equals_the_full_solve(m):
    # The same values under ==, and the same multiset of bits per matrix:
    # only the order of tied +0 and -0 may differ.
    full, spectra = _jacobi(m), _jacobi(m, vectors=False)
    assert spectra.eigenvectors is None
    assert np.array_equal(spectra.eigenvalues, full.eigenvalues)
    assert np.array_equal(np.sort(spectra.eigenvalues.view(np.int64)),
                          np.sort(full.eigenvalues.view(np.int64)))


@PROPERTY
@given(rho=states)
def test_decompose_equals_the_pauli_traces(rho):
    # decompose gathers tr(rho P) from one entry per column of each Pauli
    # product; the reference forms rho @ P and takes its trace.
    t = np.array([[np.trace(rho @ p).real for p in row] for row in _PAULI_BASIS])
    dec = decompose(rho)
    for got, want in zip(dec, (t[1:, 0], t[0, 1:], t[1:, 1:])):
        np.testing.assert_allclose(got, want, rtol=0, atol=2.3e-16)


# On a 20001-angle grid the smallest drop between neighbours of any sweep
# column is about 5e-10; pairs at least MIN_GAP apart differ by far more
# than rounding.
MIN_GAP = 1e-3


@PROPERTY
@given(pair=st.tuples(mixing_angles, mixing_angles).map(sorted)
       .filter(lambda p: p[1] - p[0] >= MIN_GAP))
def test_sweep_columns_decrease_in_r(pair):
    # Rows: bell_B, concurrence, f_max, qmid; columns: the two angles.
    cols = np.array(measure_report(np.array([shared_state(r) for r in pair]))[:4])
    assert np.all(cols[:, 0] > cols[:, 1])


@PROPERTY
@given(rho=densities(dim=2), r=st.floats(0.0, np.pi / 4))
def test_inverse_undoes_the_channel(rho, r):
    restored = apply(inverse_unruh(r), apply(unruh_kraus(r), rho))
    np.testing.assert_allclose(restored, rho, atol=1e-12)


# Equal-weight mixtures of distinct Paulis: their Choi spectra have exact
# ties, so the solve's lexsort tie-break orders the extracted operators.
PAULI_STACK = np.array(_SIGMAS)
pauli_mixtures = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True).map(
    lambda idx: KrausMap(np.ones(len(idx), dtype=int),
                         PAULI_STACK[idx] / np.sqrt(len(idx))))


@settings(PROPERTY, max_examples=120)
@given(kmap=st.one_of(cptp_maps(), pauli_mixtures))
@example(kmap=KrausMap([1, 1], PAULI_STACK[[0, 0]] / np.sqrt(2)))
@example(kmap=KrausMap([1, 1], PAULI_STACK[[0, 3]] / np.sqrt(2)))
@example(kmap=KrausMap([1, 1, 1, 1], PAULI_STACK / 2))
def test_choi_kraus_choi_round_trip(kmap):
    choi = choi_matrix(kmap)
    back = kraus_from_choi(choi)
    again = choi_matrix(back)
    np.testing.assert_allclose(again.matrix, choi.matrix, atol=1e-10)
    # The roundoff floor 4 eps max|lam| sits above the solve's error on the
    # zero modes of a CP map, so neither judgement calls it NCP.
    assert is_cp(choi).is_cp
    assert (back.signs == 1).all()


def dephased_by_projectors(rho):
    """sum_ij (P_i (x) Q_j) rho (P_i (x) Q_j) over the marginal eigenbases,
    the computational basis on a degenerate side."""
    bases = []
    for traced in (1, 0):
        lam, vecs = eig_hermitian(partial_trace(rho, [2, 2], traced))
        bases.append(np.eye(2) if abs(lam[0] - lam[1]) < DEGENERACY_GAP else vecs)
    out = np.zeros((4, 4), dtype=complex)
    for a in bases[0].T:
        for b in bases[1].T:
            proj = np.outer(np.kron(a, b), np.kron(a, b).conj())
            out += proj @ rho @ proj
    return out


# Phi+, Phi-, Psi+ and Psi- in the computational basis.
BELL_VECTORS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                        dtype=complex) / np.sqrt(2.0)


@st.composite
def bell_mixtures(draw):
    # Locally rotated mixtures of Bell states: both marginals are I/2.
    q = draw(arrays(np.float64, 4, elements=st.integers(0, 4).map(float)))
    assume(q.sum() > 0)
    rho = np.einsum("k,ki,kj->ij", q / q.sum(), BELL_VECTORS, BELL_VECTORS.conj())
    w = np.kron(draw(qubit_unitaries()), draw(qubit_unitaries()))
    return w @ rho @ w.conj().T


# Marginals I/2 + 1e-10 sigma/2: degenerate within DEGENERACY_GAP, yet off
# the diagonal by more than the solver's 1e-13 of the norm, so a solved basis
# would differ from the fallback one.
_I2 = np.eye(2, dtype=complex)
NEAR_FLAT = (np.eye(4) + 1e-10 * (np.kron(PAULIS[0], _I2) + np.kron(_I2, PAULIS[1]))) / 4


@settings(PROPERTY, max_examples=200)
@given(rho=st.one_of(states, bell_mixtures()))
@example(rho=NEAR_FLAT)
def test_dephased_spectrum_is_read_off_the_product_basis(rho):
    # The shared states and Bell mixtures dephase one or both sides in the
    # fallback basis (about 40 of the 200 examples), the rest in solved ones.
    np.testing.assert_allclose(dephased(rho), dephased_by_projectors(rho),
                               rtol=0, atol=2e-15)
    pair = np.stack([partial_trace(rho, [2, 2], traced) for traced in (1, 0)])
    p = np.sort(_dephasing(rho, eig_hermitian(pair))[1])[::-1]
    np.testing.assert_allclose(eig_hermitian(dephased(rho)).eigenvalues, p,
                               rtol=0, atol=1e-14)


def choi_by_basis(kmap):
    """sum_jk |j><k| (x) E(|j><k|), the map applied to each basis operator."""
    basis = np.eye(2, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            ejk = np.outer(basis[j], basis[k])
            m += np.kron(ejk, apply(kmap, ejk))
    return m


@st.composite
def signed_maps(draw):
    k = draw(st.integers(1, 4))
    parts = draw(arrays(np.float64, (2, k, 2, 2), elements=entries | free_entries))
    signs = draw(arrays(np.int64, k, elements=st.sampled_from([1, -1])))
    return KrausMap(signs, parts[0] + 1j * parts[1])


channel_maps = st.builds(
    lambda r, which: (unruh_kraus(r), inverse_unruh(r),
                      compose(inverse_unruh(r), unruh_kraus(r)))[which],
    mixing_angles, st.integers(0, 2))


@PROPERTY
@given(kmap=st.one_of(signed_maps(), channel_maps))
def test_choi_matrix_equals_the_basis_construction(kmap):
    # Bit for bit, signed zeros included, after the trace-1 halving.
    got = choi_matrix(kmap).matrix
    want = choi_by_basis(kmap) / 2.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# The per-term loops that the stacked channel algebra replaced, kept as its
# bitwise reference: Python sums from 0 in term order, one matrix at a time,
# with the products of the library's own loop, _mm.
def _terms(kmap):
    return list(zip(kmap.signs.tolist(), kmap.ops))


def apply_by_terms(terms, rho):
    return sum(sign * _mm(_mm(op, rho), op.conj().T) for sign, op in terms)


def completeness_by_terms(terms):
    acc = sum(sign * _mm(op.conj().T, op) for sign, op in terms)
    return float(np.max(np.abs(acc - np.eye(len(acc)))))


def compose_by_terms(outer, inner):
    return [(so * si, _mm(ko, ki))
            for so, ko in _terms(outer) for si, ki in _terms(inner)]


def choi_by_terms(terms):
    m = np.zeros((4, 4), dtype=complex)
    for sign, op in terms:
        v = op.reshape(4, order="F")
        m += sign * np.einsum("i,j->ij", v, v.conj())
    return m / 2.0


def kraus_by_terms(choi):
    dec = _jacobi(2.0 * choi.matrix)
    floor = _roundoff(dec.eigenvalues)
    terms = []
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        if abs(lam) > floor:
            terms.append((1 if lam > 0 else -1,
                          (np.sqrt(abs(lam)) * vec).reshape(2, 2, order="F")))
    return terms


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_terms(kmap, terms):
    assert kmap.signs.tolist() == [sign for sign, _ in terms]
    assert_same_bits(kmap.ops, [op for _, op in terms])


@PROPERTY
@given(kmap=st.one_of(signed_maps(), channel_maps), inner=signed_maps(),
       parts=arrays(np.float64, (2, 4, 4), elements=entries | free_entries))
def test_stacked_algebra_equals_the_per_term_loops(kmap, inner, parts):
    # Bit for bit, signed zeros included, on one and on two qubits.
    rho = parts[0] + 1j * parts[1]
    lifted = [(sign, np.kron(np.eye(2), op)) for sign, op in _terms(kmap)]
    assert_same_bits(apply(kmap, rho[:2, :2]), apply_by_terms(_terms(kmap), rho[:2, :2]))
    assert_same_bits(apply_to_second(kmap, rho), apply_by_terms(lifted, rho))
    assert_same_bits(completeness_defect(kmap), completeness_by_terms(_terms(kmap)))
    assert_same_terms(compose(kmap, inner), compose_by_terms(kmap, inner))
    choi = choi_matrix(kmap)
    assert_same_bits(choi.matrix, choi_by_terms(_terms(kmap)))
    if kraus_by_terms(choi):
        assert_same_terms(kraus_from_choi(choi), kraus_by_terms(choi))


@PROPERTY
@given(gamma=st.floats(0.0, 1.0), r=mixing_angles)
def test_damping_and_channel_compose_into_damping(gamma, r):
    # gamma'' = gamma cos^2 r + sin^2 r, in either order. The Choi coherence
    # sqrt(1 - gamma'') amplifies the rounding of gamma'' near full damping,
    # so entries are compared by squared modulus; all of them are real and
    # non-negative, which the last assertion pins.
    merged = min(gamma * np.cos(r) ** 2 + np.sin(r) ** 2, 1.0)
    want = choi_matrix(amplitude_damping(merged)).matrix
    for kmap in (compose(amplitude_damping(gamma), unruh_kraus(r)),
                 compose(unruh_kraus(r), amplitude_damping(gamma))):
        got = choi_matrix(kmap).matrix
        np.testing.assert_allclose(np.abs(got) ** 2, np.abs(want) ** 2, atol=1e-12)
        assert np.all(got.real >= 0.0) and not got.imag.any()


@PROPERTY
@given(r=mixing_angles)
@example(r=3e-8)
@example(r=5e-8)
@example(r=1e-6)
@example(r=1.4e-5)
def test_inverse_choi_spectrum(r):
    verdict = is_cp(choi_matrix(inverse_unruh(r)))
    low = -np.tan(r) ** 2 / 2
    assert verdict.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)
    assert verdict.min_eigenvalue == pytest.approx(low, abs=1e-12)
    # NCP once the negative eigenvalue clears the roundoff floor 4 eps
    # max|lam|, with max|lam| = 1 + tan^2 r / 2: every r above 4.3e-8.
    # r = 0 is the identity, CP.
    floor = 4 * np.finfo(float).eps
    if low < -1.1 * floor:
        assert not verdict.is_cp
    elif low > -0.9 * floor:
        assert verdict.is_cp


# On no theta grid of 2-40 points does z in array form (squares) differ
# from the scalar z (pow); on these two larger ones it does, so the
# examples catch a z computed in array form.
@PROPERTY
@given(r=mixing_angles, n_theta=st.integers(2, 40), n_phi=st.integers(2, 40))
@example(r=0.3, n_theta=88, n_phi=2)
@example(r=np.pi / 4, n_theta=109, n_phi=3)
def test_surface_grid_rows_equal_the_closed_form(r, n_theta, n_phi):
    theta, phi, x, y, z = surface_grid(r, n_theta, n_phi)
    assert _same(theta, np.linspace(0.0, np.pi, n_theta))
    assert _same(phi, np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False))
    got = [(x[i, j], y[i, j], z[i]) for i in range(n_theta) for j in range(n_phi)]
    want = [image_of_pure(t, p, r) for t in theta for p in phi]
    # The bytes pin the sign of every zero as well as the value.
    assert _same(got, want)


# Finite floats of any size, and ones drawn where _cells_12g prints from
# digit words, magnitudes below 1 and in [1e-4, 1e-3).
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-1.0, 1.0), st.floats(1e-4, 1e-3))


@PROPERTY
@given(x=st.lists(finite_floats, min_size=1, max_size=50))
@example(x=[0.0, -0.0, 1.0, -1.0, 0.5, 1e-4, 5e-324, 0.99999999999995, 0.09999999999995,
            -2.2250738585072014e-308, -1.7976931348623157e308])
def test_cells_12g_rebuild_the_12g_text(x):
    # Each 20-byte cell, NULs dropped, is ',' + '%.12g' % x.
    cells = _cells_12g(np.array(x))
    assert [bytes(c[c != 0]).decode() for c in cells] == ["," + "%.12g" % v for v in x]


ALL_OPTIONS = [option for _, _, options in COMMANDS.values() for option in options]
ALL_FLAGS = sorted({flag for flag, *_ in ALL_OPTIONS})
CHOICES = sorted({c for _, kind, *_ in ALL_OPTIONS if isinstance(kind, tuple) for c in kind})
ODD_VALUES = ["nan", "inf", "-0", "-0.1", "-1e-3", "", "cubic", *CHOICES, *ALL_FLAGS]


def _valid_text(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.integers(0, 10**4).map(str)
    if kind is float:
        return st.one_of(st.floats(0.0, 100.0).map(repr),
                         st.sampled_from(["5e-324", "1e308"]))
    return st.sampled_from(["out.txt", "x"])


@st.composite
def cli_argv(draw):
    # A subcommand or another token, then pairs: an exact flag, a prefix of one,
    # --help, --seed or --flag=value, followed by a value valid for the flag, nan,
    # inf, a negative, a choice, a non-choice, "" or a flag. Flags and values
    # repeat, and an odd token may trail. Half the draws keep to exact flags and
    # valid values, the form the table path reads.
    sub = draw(st.sampled_from([*COMMANDS] * 3 + ["nosuch", "--help", ""]))
    options = COMMANDS[sub][2] if sub in COMMANDS else ALL_OPTIONS
    clean = draw(st.booleans())
    argv = [sub]
    for _ in range(draw(st.integers(0, 6))):
        flag, kind, *_ = draw(st.sampled_from(options))
        value = draw(_valid_text(kind) if clean else st.one_of(  # valid 2 times in 3
            _valid_text(kind), _valid_text(kind), st.sampled_from(ODD_VALUES)))
        form = "exact" if clean else draw(
            st.sampled_from(["exact"] * 4 + ["prefix", "help", "seed", "="]))
        if form == "prefix":
            flag = flag[:draw(st.integers(2, len(flag) - 1))]
        elif form in ("help", "seed"):
            flag = "--" + form
        elif form == "=":
            flag = f"{flag}={draw(_valid_text(kind))}"
        argv += [flag, value]
    if not clean and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["3", *ODD_VALUES])))
    return argv


def _parsed(argv):
    # build_parser().parse_args(argv) as the repr of each attribute (NaN equals
    # NaN, -0.0 differs from 0.0), or None where argparse exits. The subcommand's
    # parser, which main keeps only to report leftovers with, is no parsed value.
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit:
        return None
    return {k: repr(v) for k, v in vars(args).items() if k != "parser"}


@settings(PROPERTY, max_examples=600)
@given(argv=cli_argv())
@example(argv=["sweep", "--out", "--steps", "3"])
@example(argv=["sweep", "--out", "--steps", "--steps", "3"])
@example(argv=["channel", "--r", "-1e-3"])
@example(argv=["geometry", "--n-theta", "3"])
@example(argv=["geometry", "--r", "nan", "--n-phi", "100", "--r", "0.3"])
def test_table_path_equals_argparse(argv):
    # The table path reads argv as argparse does, or leaves it to argparse.
    got = _table_args(argv)
    if got is not None:
        assert {k: repr(v) for k, v in vars(got).items()} == _parsed(argv)


# The sweep path calls numpy's C layer directly (ufunc reductions, ndarray
# methods, np.count_nonzero). The forms it used before stay here as bitwise
# references: np.clip at zero, the moveaxis entropy reduce, the stacked
# partial_trace marginals and the .any()/.all() decisions of the solver.
def entropy_reference(lam):
    pos = lam > 0.0
    terms = np.where(pos, lam * np.log2(np.where(pos, lam, 1.0)), 0.0)
    return functools.reduce(np.subtract, np.moveaxis(terms, -1, 0), 0.0)


def psd_root_reference(dec):
    lam, vecs = dec
    return _mm(vecs * np.sqrt(np.clip(lam, 0.0, None))[..., None, :], _dag(vecs))


def f_max_reference(lam):
    return 0.5 * (1.0 + np.sum(np.sqrt(np.clip(lam, 0.0, None)), axis=-1) / 3.0)


def concurrence_reference(rho, dec):
    root = psd_root_reference(dec)
    m = _mm(_mm(root[..., ::-1] * _YY_SIGNS, rho.conj())[..., ::-1] * _YY_SIGNS, root)
    lam = _jacobi(m, vectors=False).eigenvalues
    floor = 4 * np.finfo(float).eps * np.abs(dec.eigenvalues).max(-1, keepdims=True)
    lam = np.where(np.abs(lam) <= floor, 0.0, lam)
    vals = np.sqrt(np.clip(lam, 0.0, None))
    c = vals[..., 0] - vals[..., 1] - vals[..., 2] - vals[..., 3]
    return np.where(c > 0.0, c, 0.0)


def marginals_reference(rho):
    return np.stack([partial_trace(rho, [2, 2], t) for t in (1, 0)], axis=-3)


def information_reference(rho, dec):
    pair = _jacobi(marginals_reference(rho))
    s = entropy_reference(pair.eigenvalues)
    local = s[..., 0] + s[..., 1]
    return local - entropy_reference(dec.eigenvalues), local, pair


def unconverged_reference(a, live):
    # On a stack (k, n, n): one row of squares a matrix, summed along it.
    n = a.shape[-1]
    x = np.abs(a[live]).reshape(-1, n * n)
    x[x < np.finfo(float).tiny] = 0.0
    big = x.max(axis=-1, keepdims=True)
    sq = (x / np.where(big > 0.0, big, 1.0)) ** 2
    whole = sq.sum(axis=-1)
    sq[:, :: n + 1] = 0.0
    keep = ~(sq.sum(axis=-1) <= 1e-26 * whole)
    if keep.all():
        return live
    return np.arange(len(a))[live][keep] if keep.any() else None


def rotate_reference(a, v, live, p, q):
    # On stacks (k, n, n), by _mm: the solver stacks its matrices last instead.
    g = a[live, p, q]
    absg = np.hypot(g.real, g.imag)
    turn = absg >= np.finfo(float).tiny
    if not turn.any():
        return
    if not turn.all():
        live, g, absg = np.arange(len(a))[live][turn], g[turn], absg[turn]
    phase = (g / absg).conj()
    tau = (a[live, q, q].real - a[live, p, p].real) / (2.0 * absg)
    t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    np.negative(t, out=t, where=tau < 0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # Columns p and q of a and of v, then rows p and q of a, by the 2x2 rotation.
    r = np.array([[c, s], [-s * phase, c * phase]]).transpose(2, 0, 1)
    b, w, pq = a[live], v[live], [p, q]
    b[..., pq], w[..., pq] = _mm(b[..., pq], r), _mm(w[..., pq], r)
    b[..., pq, :] = _mm(_dag(r), b[..., pq, :])
    a[live], v[live] = b, w


# Signed zeros, subnormals, roundoff-sized negatives and NaN: where clip, max and
# the order of a reduction could show in the bits.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1.0, -1.0]),
    st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
spectra = st.one_of(
    *(arrays(np.float64, shape, elements=edge_floats)
      for shape in [(4,), (6, 4), (5, 2, 2), (3, 8), (2, 3, 4)]))


@PROPERTY
@given(lam=spectra)
def test_entropy_reduce_equals_the_moveaxis_reduce(lam):
    assert_same_bits(_entropy(lam), entropy_reference(lam))


@PROPERTY
@given(x=spectra | arrays(np.float64, 7, elements=st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300])))
def test_maximum_at_zero_equals_clip(x):
    assert_same_bits(np.maximum(x, 0.0), np.clip(x, 0.0, None))
    assert_same_bits(_f_max(x), f_max_reference(x))


@st.composite
def signed_zero_stacks(draw):
    # States of the property draws, each of its exact zeros given a drawn sign.
    stack = np.array(draw(st.lists(states, min_size=1, max_size=6)))
    signs = draw(arrays(np.bool_, stack.shape + (2,)))
    parts = np.stack([stack.real, stack.imag], axis=-1)
    parts[(parts == 0.0) & signs] = -0.0
    return parts[..., 0] + 1j * parts[..., 1]


@PROPERTY
@given(stack=signed_zero_stacks())
def test_report_helpers_equal_their_reference_forms(stack):
    dec = _jacobi(stack)
    seen = []

    def solve(m, **kwargs):
        seen.append(m.copy())
        return _jacobi(m, **kwargs)

    with mock.patch.object(correlations, "_jacobi", solve):
        got = _information(stack, dec)
    assert_same_bits(seen[0], marginals_reference(stack))
    want = information_reference(stack, dec)
    for x, y in zip(got[:2] + tuple(got[2]), want[:2] + tuple(want[2])):
        assert_same_bits(x, y)
    assert_same_bits(_psd_root(dec), psd_root_reference(dec))
    assert_same_bits(_concurrence(stack, dec), concurrence_reference(stack, dec))
    # Eigenvalues moved onto the clip's edge: signed zeros, tiny negatives, a NaN.
    edge = np.where(np.abs(dec.eigenvalues) < 1e-3, -0.0, dec.eigenvalues)
    edge[..., -1] = np.copysign(1e-17, edge[..., -1] - 0.5)
    edge[0, 1] = np.nan
    edge_dec = EigenDecomposition(edge, dec.eigenvectors)
    assert_same_bits(_psd_root(edge_dec), psd_root_reference(edge_dec))
    assert_same_bits(_f_max(edge), f_max_reference(edge))


@PROPERTY
@given(m=hermitian_stacks().filter(lambda m: m.shape[-1] == 4))
def test_concurrence_of_indefinite_matrices_equals_its_reference_form(m):
    # Negative eigenvalues reach both clips at zero: in sqrt(rho), and in the
    # Wootters spectrum, whose floor leaves negatives below -1e-12 in place.
    dec = _jacobi(m)
    assert_same_bits(_psd_root(dec), psd_root_reference(dec))
    assert_same_bits(_concurrence(m, dec), concurrence_reference(m, dec))


def _same_decision(got, want, live):
    # None, live itself, or the same index array.
    if want is None or want is live:
        return got is want
    return isinstance(got, np.ndarray) and np.array_equal(got, want)


@PROPERTY
@given(m=hermitian_stacks(), subset=st.lists(st.booleans(), min_size=6, max_size=6))
@example(m=np.full((1, 3, 3), 9.2e-244 + 0j) + [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
         subset=[False] * 6)
@np.errstate(over="ignore")
def test_solver_decisions_equal_the_any_all_forms(m, subset):
    # Three sweeps run with the new decisions, each step also taken by the
    # reference on copies: live sets, a and v must agree bit for bit. The first
    # sweep starts from a drawn subset of the stack as well as from all of it.
    # The sweeps run under _jacobi's errstate: in the example a 9.2e-244 |g|
    # overflows tau * tau, whose limit t = 0 both rotations take.
    n = m.shape[-1]
    starts = [slice(None)]
    picked = np.flatnonzero(subset[:len(m)])
    if picked.size:
        starts.append(picked)
    for live in starts:
        # The solver's layout, the matrices last and a's rows over v's; a and v
        # are views of it as stacks.
        av = np.empty((2 * n, n, len(m)), dtype=complex)
        av[:n], av[n:] = ((m + _dag(m)) / 2.0).transpose(1, 2, 0), np.eye(n)[..., None]
        a, v = av[:n].transpose(2, 0, 1), av[n:].transpose(2, 0, 1)
        for _ in range(3):
            got = qmat._unconverged(av[:n], live)
            assert _same_decision(got, unconverged_reference(a, live), live)
            live = got
            if live is None:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    a_ref, v_ref = a.copy(), v.copy()
                    rotate_reference(a_ref, v_ref, live, p, q)
                    qmat._rotate(av, live, p, q)
                    assert_same_bits(a, a_ref)
                    assert_same_bits(v, v_ref)
