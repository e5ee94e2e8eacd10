"""Property-based checks of the algebraic laws the measures and maps obey.

Examples are derandomized, so every run draws the same inputs and tier-1
stays deterministic. States are built as A A^dag / Tr with a 4 x k
complex A, k = 1..4, so rank-deficient states (pure ones included) are
drawn as often as full-rank ones. Entries of A are multiples of 1/4:
exact zeros and exactly degenerate spectra, where eigenbasis choices and
spectrum floors act, come up often. The stack test also draws free
floats in [-1, 1], subnormal entries included.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rindler.channels import (
    KrausMap,
    apply,
    choi_matrix,
    inverse_unruh,
    kraus_from_choi,
    unruh_kraus,
)
from rindler.correlations import (
    bell_B,
    concurrence,
    f_max,
    measure_report,
    mutual_information,
    qmid,
)
from rindler.qmat import eig_hermitian, tensor
from rindler.unruh import shared_state

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

entries = st.integers(-4, 4).map(lambda n: n / 4.0)
free_entries = st.floats(-1.0, 1.0)
angles = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


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
    return KrausMap(tuple((1, v[2 * i:2 * i + 2]) for i in range(k)))


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
    w = tensor(u, v)
    assert measure(w @ rho @ w.conj().T) == pytest.approx(measure(rho), abs=tol)


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


@PROPERTY
@given(rho=densities(dim=2), r=st.floats(0.0, np.pi / 4))
def test_inverse_undoes_the_channel(rho, r):
    restored = apply(inverse_unruh(r), apply(unruh_kraus(r), rho))
    np.testing.assert_allclose(restored, rho, atol=1e-12)


@PROPERTY
@given(kmap=cptp_maps())
def test_choi_kraus_choi_round_trip(kmap):
    choi = choi_matrix(kmap)
    again = choi_matrix(kraus_from_choi(choi))
    np.testing.assert_allclose(again.matrix, choi.matrix, atol=1e-10)
