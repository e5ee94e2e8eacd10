"""Two-qubit correlation measures and a Monte-Carlo teleportation check.

All four measures degrade with the mixing angle r when evaluated on the
shared state: the Bell quantity reaches its local boundary only in the
infinite-acceleration limit, while concurrence, teleportation fidelity
and the measurement-induced disturbance stay strictly positive.
Entropic quantities are in bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qmat import (
    IDENTITY_2,
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
    EigenDecomposition,
    _checked_eig,
    _dag,
    _entropy,
    _jacobi,
    _psd_root,
    _whole,
)

# Spectrum floor for the Wootters construction: eigenvalues this close
# to zero are roundoff on exact zeros and would blow up to ~1e-8 under
# the square root if kept.
WOOTTERS_EIG_FLOOR = 1e-12

# A marginal whose eigenvalue gap is below this dephases in the computational basis;
# 1e-9 is far above an exact tie's gap (~1e-16 by roundoff, ~1e-12 by 12-digit text).
DEGENERACY_GAP = 1e-9


class TwoQubitDecomposition(NamedTuple):
    """Bloch decomposition rho = (I + a.sigma (x) I + I (x) b.sigma + gamma)/4."""

    local_a: np.ndarray
    local_b: np.ndarray
    gamma: np.ndarray


class MeasureReport(NamedTuple):
    bell_B: float
    concurrence: float
    f_max: float
    qmid: float
    mutual_information: float


def _two_qubit(rho: np.ndarray, stacked=False, vectors=True) -> tuple:
    """Validate once at the API boundary; the spectrum solved is shared.

    With stacked, a stack (..., 4, 4) of states is too, each with the same arithmetic;
    vectors=False solves the eigenvalues alone, for callers that read no more.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or (rho.ndim > 2 and not stacked):
        raise ValueError(f"expected a two-qubit state, got shape {rho.shape}")
    return rho, _checked_eig(rho, "rho", vectors)


# _PAULI_BASIS[i, j] = s_i (x) s_j with s_0 = I and (s_1, s_2, s_3) = PAULIS.
_SIGMAS = (IDENTITY_2,) + PAULIS
_PAULI_BASIS = np.array([[np.kron(si, sj) for sj in _SIGMAS] for si in _SIGMAS])
# Column k of _PAULI_BASIS[i, j] has one non-zero entry, _PAULI_ENTRY[k, i, j],
# in row _PAULI_ROW[k, i, j].
_PAULI_ROW = np.abs(_PAULI_BASIS).argmax(axis=-2).transpose(2, 0, 1)
_PAULI_ENTRY = _PAULI_BASIS.sum(axis=-2).transpose(2, 0, 1)
# x @ _PAULI_BASIS[2, 2] is x[..., ::-1] * _YY_SIGNS but for the signs of zeros.
_YY_SIGNS = _PAULI_ENTRY[:, 2, 2].real


def _decompose(rho: np.ndarray) -> TwoQubitDecomposition:
    # tr(rho P) = sum_k rho[k, row(k)] P[row(k), k], paired as np.trace adds them.
    g = [(rho[..., k, _PAULI_ROW[k]] * _PAULI_ENTRY[k]).real for k in range(4)]
    t = (g[0] + g[1]) + (g[2] + g[3])
    return TwoQubitDecomposition(t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:])


def decompose(rho: np.ndarray) -> TwoQubitDecomposition:
    """Local Bloch vectors and the 3x3 correlation matrix of a state."""
    return _decompose(_two_qubit(rho, vectors=False)[0])


def reconstruct(dec: TwoQubitDecomposition) -> np.ndarray:
    """Rebuild the density matrix from its Bloch decomposition."""
    # coeff[i, j] multiplies _PAULI_BASIS[i, j]; coeff[0, 0] = 1.
    coeff = np.eye(4)
    coeff[1:, 0], coeff[0, 1:], coeff[1:, 1:] = dec
    return np.tensordot(coeff, _PAULI_BASIS, 2) / 4.0


def _gamma_spectrum(rho: np.ndarray) -> np.ndarray:
    # Eigenvalues of gamma^T gamma, descending; shared by bell_B and f_max.
    gamma = _decompose(rho).gamma
    return _jacobi(gamma.swapaxes(-1, -2) @ gamma, vectors=False).eigenvalues


def _bell_B(lam: np.ndarray) -> np.ndarray:
    return lam[..., 0] + lam[..., 1]


def bell_B(rho: np.ndarray) -> float:
    """Sum of the two largest eigenvalues of gamma^T gamma.

    Some CHSH setting violates the classical bound exactly when the
    returned value exceeds 1.
    """
    return float(_bell_B(_gamma_spectrum(_two_qubit(rho, vectors=False)[0])))


def _concurrence(rho: np.ndarray, dec: EigenDecomposition) -> np.ndarray:
    root = _psd_root(dec)
    m = (((root[..., ::-1] * _YY_SIGNS) @ rho.conj())[..., ::-1] * _YY_SIGNS) @ root
    # The floor also makes +0 of any zero whose sign the reversals changed.
    lam = _jacobi(m, vectors=False).eigenvalues
    lam = np.where(np.abs(lam) < WOOTTERS_EIG_FLOOR, 0.0, lam)
    vals = np.sqrt(np.maximum(lam, 0.0))
    c = vals[..., 0] - vals[..., 1] - vals[..., 2] - vals[..., 3]
    return np.where(c > 0.0, c, 0.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters entanglement measure of a two-qubit state.

    Complex conjugation is taken in the computational basis. The
    spin-flipped spectrum is floored at WOOTTERS_EIG_FLOOR before the
    square root, which keeps exact zeros exact.
    """
    return float(_concurrence(*_two_qubit(rho)))


def _f_max(lam: np.ndarray) -> np.ndarray:
    trace_root = np.add.reduce(np.sqrt(np.maximum(lam, 0.0)), -1)
    return 0.5 * (1.0 + trace_root / 3.0)


def f_max(rho: np.ndarray) -> float:
    """Best average teleportation fidelity using rho as the resource.

    Evaluates (1/2)(1 + Tr sqrt(gamma^T gamma) / 3); the classical
    threshold is 2/3.
    """
    return float(_f_max(_gamma_spectrum(_two_qubit(rho, vectors=False)[0])))


def _information(rho: np.ndarray, dec: EigenDecomposition) -> tuple:
    # I(rho) from its spectrum dec, S(A) + S(B), and the marginal spectra, A and B
    # stacked on axis -3: rho[(i, j), (k, l)] traced over j = l, then over i = k.
    lead = rho.shape[:-2]
    r4, pair = rho.reshape(lead + (2, 2, 2, 2)), np.empty(lead + (2, 2, 2), complex)
    r4.trace(0, -3, -1, out=pair[..., 0, :, :])
    r4.trace(0, -4, -2, out=pair[..., 1, :, :])
    pair = _jacobi(pair)
    s = _entropy(pair.eigenvalues)
    local = s[..., 0] + s[..., 1]
    return local - _entropy(dec.eigenvalues), local, pair


def mutual_information(rho: np.ndarray) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    return float(_information(*_two_qubit(rho, vectors=False))[0])


def _dephasing(rho: np.ndarray, spectra: EigenDecomposition) -> tuple:
    # U, the Kronecker product of the marginal eigenbases (the computational
    # basis on a degenerate side), and the dephased spectrum diag(U^dag rho U).
    lam, vecs = spectra
    flat = (np.abs(lam[..., 0] - lam[..., 1]) < DEGENERACY_GAP)[..., None, None]
    basis = np.where(flat, IDENTITY_2, vecs)
    a, b = basis[..., 0, :, :], basis[..., 1, :, :]
    u = (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(rho.shape)
    return u, (_dag(u) @ rho @ u).diagonal(axis1=-2, axis2=-1).real


def dephased(rho: np.ndarray) -> np.ndarray:
    """Project onto the product of the marginal eigenbases.

    The result is U diag(p) U^dag, with U the Kronecker product of the two
    marginal eigenbases and p = diag(U^dag rho U). Degenerate marginals
    (gap below DEGENERACY_GAP) dephase in the computational basis; this
    fixed convention keeps the result deterministic even though a
    degenerate marginal has no preferred eigenbasis.
    """
    rho, dec = _two_qubit(rho, vectors=False)
    u, p = _dephasing(rho, _information(rho, dec)[2])
    return (u * p) @ _dag(u)


def _qmid(rho: np.ndarray, info, local, spectra) -> np.ndarray:
    # Dephasing keeps the marginals, so I(dephased) = S(A) + S(B) - H(p);
    # p is summed in descending order, as a solve would return it.
    return info - (local - _entropy(np.sort(_dephasing(rho, spectra)[1])[..., ::-1]))


def qmid(rho: np.ndarray) -> float:
    """Measurement-induced disturbance I(rho) - I(dephased(rho)), in bits."""
    rho, dec = _two_qubit(rho, vectors=False)
    return float(_qmid(rho, *_information(rho, dec)))


# Amplitudes A[a, b] of the Bell states sum_ab A[a, b] |ab>: (s (x) I)|Phi+>
# for s = I, Z, X, ZX gives Phi+, Phi-, Psi+, Psi-.
_BELL_OUTCOMES = np.array([IDENTITY_2, SIGMA_Z, SIGMA_X, SIGMA_Z @ SIGMA_X])
_BELL_OUTCOMES /= np.sqrt(2.0)
# With psi psi^dag = sum_i v_i s_i / 2 and v = (1, n), correction s_p after
# outcome k has fidelity v^T R_pk v, where R[p, k, i, j], linear in rho, is
# tr(rho (A_k^dag s_i A_k)^T (x) s_p^dag s_j s_p) / 4. _TELEPORT_FORM maps
# rho's entries (b, r, c, s) to the (p, k, i, j) of R, in 16x16 blocks BLAS won't thread.
_TELEPORT_FORM = 0.25 * np.einsum(
    "kibc,pjsr->pkijbrcs",
    np.einsum("kab,iad,kdc->kibc", _BELL_OUTCOMES.conj(), _SIGMAS, _BELL_OUTCOMES),
    np.einsum("pds,jde,per->pjsr", np.conj(_SIGMAS), _SIGMAS, _SIGMAS),
).reshape(16, 16, 16)


# cos and sin of 2 pi j / _TURNS by libm, as in geometry (numpy's own loops may
# be SIMD ones, CPU-dependent); _TELEPORT_BLOCK samples' temporaries fit in cache.
_TURNS, _TELEPORT_BLOCK = 4096, 8192
_TURN_ANGLES = (2.0 * np.pi / _TURNS * np.arange(_TURNS)).tolist()
_TURN_COS, _TURN_SIN = (np.array(list(map(f, _TURN_ANGLES))) for f in (math.cos, math.sin))


def _cos_sin_turn(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cos and sin of 2 pi u, 0 <= u < 1: table entry k = floor(_TURNS u) turned by
    # d = 2 pi (_TURNS u - k) / _TURNS < 1.6e-3, to d^5 (the rest is below 1e-19).
    t = u * _TURNS  # exact, as is t - k: _TURNS is a power of two
    k = t.astype(np.intp)
    d = (t - k) * (2.0 * np.pi / _TURNS)
    d2 = d * d
    sin_d, cos_d_less_1 = d - d * d2 * (1.0 / 6.0 - d2 / 120.0), d2 * (d2 / 24.0 - 0.5)
    c, s = _TURN_COS[k], _TURN_SIN[k]
    return c + (c * cos_d_less_1 - s * sin_d), s + (s * cos_d_less_1 + c * sin_d)


def _teleport_table(rho: np.ndarray, samples: int, seed) -> np.ndarray:
    # Mean fidelity [p, k] of correction p after outcome k: <R_pk, M> / samples,
    # M = sum_n v_n v_n^T over the seeded Haar draws, summed block by block.
    u_z, u_phi = np.random.default_rng(seed).random((2, samples))  # n_z's u first
    moments, v = np.zeros((4, 4)), np.ones((4, min(samples, _TELEPORT_BLOCK)))
    for start in range(0, samples, _TELEPORT_BLOCK):
        n_z = 1.0 - 2.0 * u_z[start:start + _TELEPORT_BLOCK]
        cos_phi, sin_phi = _cos_sin_turn(u_phi[start:start + _TELEPORT_BLOCK])
        sin_theta, w = np.sqrt((1.0 - n_z) * (1.0 + n_z)), v[:, :n_z.size]
        w[1], w[2], w[3] = sin_theta * cos_phi, sin_theta * sin_phi, n_z
        # einsum's own loop, not BLAS: the sum's order does not depend on threads.
        moments += np.einsum("in,jn->ij", w, w)
    form = (_TELEPORT_FORM @ rho.ravel()).real.reshape(4, 4, 4, 4)
    return np.einsum("pkij,ij->pk", form, moments) / samples


def teleport_fidelity_mc(rho: np.ndarray, samples: int, seed: int = 0) -> float:
    """Monte-Carlo average fidelity of teleportation through rho.

    Haar-uniform pure inputs are drawn from a seeded generator, the
    sender measures in the Bell basis, and for each outcome the receiver
    applies the Pauli (or identity) correction with the highest average
    fidelity. Each fidelity is a quadratic form v^T R_pk v in the input's
    Bloch vector v = (1, n_x, n_y, n_z), so the mean over the draws is
    <R_pk, M> / samples, with M the 4x4 sum of v v^T over the draws; the
    estimate is sum_k max_p of these means. Rounded addition is monotone,
    so the per-outcome maxima, summed in outcome order, are exactly the
    best of all 256 assignments of a correction to each outcome. M is summed
    in blocks of 8192 samples, with cos and sin of the azimuth from a table
    and a polynomial; only the uniform draws, 16 bytes a sample, grow with N.

    Parameters
    ----------
    rho : two-qubit resource state
    samples : number of Haar samples, a whole number (int or float) >= 1
    seed : generator seed; identical seeds reproduce the estimate bit for bit
    """
    rho, _ = _two_qubit(rho, vectors=False)
    table = _teleport_table(rho, _whole(samples, 1, "samples"), seed)
    return float(sum(table.max(axis=0)))


def measure_report(rho: np.ndarray) -> MeasureReport:
    """All scalar measures of a state in a single record.

    A stack of states (..., 4, 4) is measured in one batched pass and
    gives a record of arrays; entry i equals the report of state i alone.
    """
    rho, dec = _two_qubit(rho, stacked=True)
    lam = _gamma_spectrum(rho)
    info, local, spectra = _information(rho, dec)
    rep = MeasureReport(
        bell_B=_bell_B(lam),
        concurrence=_concurrence(rho, dec),
        f_max=_f_max(lam),
        qmid=_qmid(rho, info, local, spectra),
        mutual_information=info,
    )
    return MeasureReport(*map(float, rep)) if rho.ndim == 2 else rep
