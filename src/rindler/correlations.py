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
    EigenDecomposition,
    _checked_eig,
    _dag,
    _entropy,
    _jacobi,
    _mm,
    _psd_root,
    _roundoff,
    _whole,
)

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


def _pauli_table(rho: np.ndarray) -> np.ndarray:
    # t[..., i, j] = tr(rho s_i (x) s_j), its four terms paired as np.trace adds them.
    g = [(rho[..., k, _PAULI_ROW[k]] * _PAULI_ENTRY[k]).real for k in range(4)]
    return (g[0] + g[1]) + (g[2] + g[3])


def _decompose(rho: np.ndarray) -> TwoQubitDecomposition:
    t = _pauli_table(rho)
    return TwoQubitDecomposition(t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:])


def decompose(rho: np.ndarray) -> TwoQubitDecomposition:
    """Local Bloch vectors and the 3x3 correlation matrix of a state."""
    return _decompose(_two_qubit(rho, vectors=False)[0])


def reconstruct(dec: TwoQubitDecomposition) -> np.ndarray:
    """Rebuild the density matrix from its Bloch decomposition."""
    # coeff[i, j] multiplies _PAULI_BASIS[i, j]; coeff[0, 0] = 1.
    coeff = np.eye(4)
    coeff[1:, 0], coeff[0, 1:], coeff[1:, 1:] = dec
    return np.einsum("ij,ijkl->kl", coeff, _PAULI_BASIS) / 4.0


def _gamma_spectrum(rho: np.ndarray) -> np.ndarray:
    # Eigenvalues of gamma^T gamma, descending; shared by bell_B and f_max.
    gamma = _decompose(rho).gamma
    return _jacobi(_mm(gamma.swapaxes(-1, -2), gamma), vectors=False).eigenvalues


def bell_B(rho: np.ndarray) -> float:
    """Sum of the two largest eigenvalues of gamma^T gamma.

    Some CHSH setting violates the classical bound exactly when the
    returned value exceeds 1.
    """
    lam = _gamma_spectrum(_two_qubit(rho, vectors=False)[0])
    return float(lam[0] + lam[1])


def _concurrence(rho: np.ndarray, dec: EigenDecomposition) -> np.ndarray:
    root = _psd_root(dec)
    m = _mm(_mm(root[..., ::-1] * _YY_SIGNS, rho.conj())[..., ::-1] * _YY_SIGNS, root)
    # Eigenvalues within the roundoff of the state's spectrum (not their own, all roundoff
    # on a product) become +0, as do zeros whose sign the reversals changed.
    lam = _jacobi(m, vectors=False).eigenvalues
    lam = np.where(np.abs(lam) <= _roundoff(dec.eigenvalues)[..., None], 0.0, lam)
    vals = np.sqrt(np.maximum(lam, 0.0))
    c = vals[..., 0] - vals[..., 1] - vals[..., 2] - vals[..., 3]
    return np.where(c > 0.0, c, 0.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters entanglement measure of a two-qubit state.

    Complex conjugation is taken in the computational basis. An eigenvalue
    of the spin-flipped matrix within the roundoff 4 eps max|eigenvalue| of
    rho's own spectrum is taken as zero before the square root, which keeps
    exact zeros exact.
    """
    return float(_concurrence(*_two_qubit(rho)))


def _f_max(lam: np.ndarray) -> np.ndarray:
    trace_root = np.add.reduce(np.sqrt(np.maximum(lam, 0.0)), -1)
    return 0.5 * (1.0 + trace_root / 3.0)


def f_max(rho: np.ndarray) -> float:
    """Best average teleportation fidelity using rho as the resource.

    Evaluates (1/2)(1 + Tr sqrt(gamma^T gamma) / 3); the classical
    threshold is 2/3. The standard protocol with local unitaries reaches it
    only when det gamma <= 0; elsewhere it is an upper bound on that best.
    The shared state has det gamma = -cos^4 r < 0.
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
    return u, np.einsum("...ij,...ji->...i", _mm(_dag(u), rho), u).real


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
    return _mm(u * p, _dag(u))


def _qmid(rho: np.ndarray, info, local, spectra) -> np.ndarray:
    # Dephasing keeps the marginals, so I(dephased) = S(A) + S(B) - H(p);
    # p is summed in descending order, as a solve would return it.
    return info - (local - _entropy(np.sort(_dephasing(rho, spectra)[1])[..., ::-1]))


def qmid(rho: np.ndarray) -> float:
    """Measurement-induced disturbance I(rho) - I(dephased(rho)), in bits."""
    rho, dec = _two_qubit(rho, vectors=False)
    return float(_qmid(rho, *_information(rho, dec)))


# Correction s_p after Bell outcome k, (s (x) I)|Phi+> for s = I, Z, X, ZX, has fidelity
# v^T R_pk v (psi psi^dag = sum_i v_i s_i / 2), R_pk = _TELEPORT_SIGNS[p, k] * t: s_p turns
# s_j to _COMMUTES[p, j] s_j; outcome k turns s_i as s_(0, 3, 1, 2)[k] does, then Y to -Y.
_COMMUTES = np.einsum("pab,jbc,pcd,jda->pj", *4 * [_SIGMAS]).real / 2
_TELEPORT_SIGNS = np.einsum("ki,i,pj->pkij", _COMMUTES[[0, 3, 1, 2]],
                            np.square(_SIGMAS).sum((1, 2)).real / 2, _COMMUTES) / 8


# Row j holds cos and sin of 2 pi j / _TURNS by libm, as in geometry (numpy's own
# loops may be SIMD ones, CPU-dependent); _TELEPORT_BLOCK samples' temporaries fit in cache.
_TURNS, _TELEPORT_BLOCK = 4096, 8192
_TURN_ANGLES = (2.0 * np.pi / _TURNS * np.arange(_TURNS)).tolist()
_TURN_COS_SIN = np.column_stack([list(map(f, _TURN_ANGLES)) for f in (math.cos, math.sin)])


def _teleport_table(rho: np.ndarray, samples: int, seed) -> np.ndarray:
    # Mean fidelity [p, k] of correction p after outcome k: <R_pk, M> / samples, M =
    # sum_n v_n v_n^T over the seeded draws by blocks; the azimuth is node floor(_TURNS u).
    draws = np.random.default_rng(seed).random((2, samples))  # n_z's u first
    moments, v = np.zeros((4, 4)), np.ones((4, min(samples, _TELEPORT_BLOCK)))
    for start in range(0, samples, _TELEPORT_BLOCK):
        (u_z, u_phi), w = draws[:, start:start + _TELEPORT_BLOCK], v[:, :samples - start]
        n_z = np.subtract(1.0, 2.0 * u_z, out=w[3])
        np.multiply(_TURN_COS_SIN.take((u_phi * _TURNS).astype(np.intp), 0).T,
                    np.sqrt((1.0 - n_z) * (1.0 + n_z)), out=w[1:3])
        # M[:, 1:] by einsum's own loop, not BLAS, whose order depends on threads.
        moments[:, 1:] += np.einsum("in,jn->ij", w, w[1:])
    moments[0, 0], moments[1:, 0] = samples, moments[0, 1:]  # M[0, 0] counts the samples
    return np.einsum("pkij,ij->pk", _TELEPORT_SIGNS, _pauli_table(rho) * moments) / samples


def teleport_fidelity_mc(rho: np.ndarray, samples: int, seed: int = 0) -> float:
    """Monte-Carlo average fidelity of teleportation through rho.

    Pure inputs are drawn from a seeded generator, n_z uniform on [-1, 1]
    and the azimuth uniform on the 4096 nodes 2 pi j / 4096; the sender
    measures in the Bell basis, and for each outcome the receiver applies
    the Pauli (or identity) correction with the highest average fidelity.
    Each fidelity is a quadratic form v^T R_pk v in the input's Bloch
    vector v = (1, n_x, n_y, n_z): R_pk[i, j] is a sign times t[i, j] / 8,
    t[i, j] = tr(rho s_i (x) s_j) the state's Pauli table. The mean over
    the draws is <R_pk, M> / samples, M the 4x4 sum of v v^T. M and
    a fidelity's variance read the azimuth's moments to degree 4, where
    the nodes are Haar's. The estimate is sum_k max_p of these means:
    rounded addition is monotone, so it is exactly the best of all 256
    assignments of a correction to each outcome. M is summed in blocks of
    8192 samples; only the uniform draws, 16 bytes a sample, grow with N.

    Parameters
    ----------
    rho : two-qubit resource state
    samples : number of samples, a whole number (int or float) >= 1
    seed : generator seed; identical seeds reproduce the estimate bit for bit
    """
    rho = _two_qubit(rho, vectors=False)[0]
    return float(sum(_teleport_table(rho, _whole(samples, 1, "samples"), seed).max(axis=0)))


def measure_report(rho: np.ndarray) -> MeasureReport:
    """All scalar measures of a state in a single record.

    A stack of states (..., 4, 4) is measured in one batched pass and
    gives a record of arrays; entry i equals the report of state i alone.
    """
    rho, dec = _two_qubit(rho, stacked=True)
    lam = _gamma_spectrum(rho)
    info, local, spectra = _information(rho, dec)
    rep = MeasureReport(
        bell_B=lam[..., 0] + lam[..., 1],
        concurrence=_concurrence(rho, dec),
        f_max=_f_max(lam),
        qmid=_qmid(rho, info, local, spectra),
        mutual_information=info,
    )
    return MeasureReport(*map(float, rep)) if rho.ndim == 2 else rep
