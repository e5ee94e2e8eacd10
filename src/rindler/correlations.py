"""Two-qubit correlation measures and a Monte-Carlo teleportation check.

All four measures degrade with the mixing angle r when evaluated on the
shared state: the Bell quantity reaches its local boundary only in the
infinite-acceleration limit, while concurrence, teleportation fidelity
and the measurement-induced disturbance stay strictly positive.
Entropic quantities are in bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qmat import (
    IDENTITY_2,
    PAULIS,
    EigenDecomposition,
    _checked_eig,
    _entropy,
    _psd_root,
    eig_hermitian,
    partial_trace,
    tensor,
)

# Spectrum floor for the Wootters construction: eigenvalues this close
# to zero are roundoff on exact zeros and would blow up to ~1e-8 under
# the square root if kept.
WOOTTERS_EIG_FLOOR = 1e-12

# Marginal eigenvalue gaps below this are treated as degenerate and the
# dephasing basis falls back to the computational one.
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


def _two_qubit(rho: np.ndarray) -> tuple[np.ndarray, EigenDecomposition]:
    """Validate once at the API boundary; the spectrum solved is shared."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {rho.shape}")
    return rho, _checked_eig(rho, "rho")


# _PAULI_BASIS[i, j] = s_i (x) s_j with s_0 = I and (s_1, s_2, s_3) = PAULIS.
_SIGMAS = (IDENTITY_2,) + PAULIS
_PAULI_BASIS = np.array([[np.kron(si, sj) for sj in _SIGMAS] for si in _SIGMAS])


def _decompose(rho: np.ndarray) -> TwoQubitDecomposition:
    t = np.array([[np.trace(rho @ p).real for p in row] for row in _PAULI_BASIS])
    return TwoQubitDecomposition(t[1:, 0].copy(), t[0, 1:].copy(), t[1:, 1:].copy())


def decompose(rho: np.ndarray) -> TwoQubitDecomposition:
    """Local Bloch vectors and the 3x3 correlation matrix of a state."""
    return _decompose(_two_qubit(rho)[0])


def reconstruct(dec: TwoQubitDecomposition) -> np.ndarray:
    """Rebuild the density matrix from its Bloch decomposition."""
    # coeff[i, j] multiplies _PAULI_BASIS[i, j]; coeff[0, 0] = 1.
    coeff = np.eye(4)
    coeff[1:, 0], coeff[0, 1:], coeff[1:, 1:] = dec
    return np.tensordot(coeff, _PAULI_BASIS, 2) / 4.0


def _gamma_spectrum(rho: np.ndarray) -> np.ndarray:
    # Eigenvalues of gamma^T gamma, descending; shared by bell_B and f_max.
    gamma = _decompose(rho).gamma
    return eig_hermitian(gamma.T @ gamma).eigenvalues


def _bell_B(lam: np.ndarray) -> float:
    return float(lam[0] + lam[1])


def bell_B(rho: np.ndarray) -> float:
    """Sum of the two largest eigenvalues of gamma^T gamma.

    Some CHSH setting violates the classical bound exactly when the
    returned value exceeds 1.
    """
    return _bell_B(_gamma_spectrum(_two_qubit(rho)[0]))


def _concurrence(rho: np.ndarray, dec: EigenDecomposition) -> float:
    yy = _PAULI_BASIS[2, 2]
    root = _psd_root(dec)
    m = root @ yy @ rho.conj() @ yy @ root
    lam = eig_hermitian(m).eigenvalues
    lam = np.where(np.abs(lam) < WOOTTERS_EIG_FLOOR, 0.0, lam)
    vals = np.sqrt(np.clip(lam, 0.0, None))
    return float(max(0.0, vals[0] - vals[1] - vals[2] - vals[3]))


def concurrence(rho: np.ndarray) -> float:
    """Wootters entanglement measure of a two-qubit state.

    Complex conjugation is taken in the computational basis. The
    spin-flipped spectrum is floored at WOOTTERS_EIG_FLOOR before the
    square root, which keeps exact zeros exact.
    """
    return _concurrence(*_two_qubit(rho))


def _f_max(lam: np.ndarray) -> float:
    trace_root = float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))
    return 0.5 * (1.0 + trace_root / 3.0)


def f_max(rho: np.ndarray) -> float:
    """Best average teleportation fidelity using rho as the resource.

    Evaluates (1/2)(1 + Tr sqrt(gamma^T gamma) / 3); the classical
    threshold is 2/3.
    """
    return _f_max(_gamma_spectrum(_two_qubit(rho)[0]))


def _information(rho: np.ndarray, dec: EigenDecomposition) -> tuple[float, list]:
    # I(rho) from its spectrum dec, and the marginals' spectra (A first).
    marginals = [_checked_eig(partial_trace(rho, [2, 2], traced), "entropy input")
                 for traced in (1, 0)]
    s_a, s_b = (_entropy(m.eigenvalues) for m in marginals)
    return s_a + s_b - _entropy(dec.eigenvalues), marginals


def mutual_information(rho: np.ndarray) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    return _information(*_two_qubit(rho))[0]


def _dephased(rho: np.ndarray, marginals) -> np.ndarray:
    basis_a, basis_b = (
        np.eye(2, dtype=complex) if abs(lam[0] - lam[1]) < DEGENERACY_GAP else vecs
        for lam, vecs in marginals
    )
    out = np.zeros_like(rho)
    for i in range(2):
        for j in range(2):
            proj = tensor(
                np.outer(basis_a[:, i], basis_a[:, i].conj()),
                np.outer(basis_b[:, j], basis_b[:, j].conj()),
            )
            out += proj @ rho @ proj
    return out


def dephased(rho: np.ndarray) -> np.ndarray:
    """Project onto the product of the marginal eigenbases.

    Degenerate marginals (gap below DEGENERACY_GAP) dephase in the
    computational basis; this fixed convention keeps the result
    deterministic even though a degenerate marginal has no preferred
    eigenbasis.
    """
    rho, dec = _two_qubit(rho)
    return _dephased(rho, _information(rho, dec)[1])


def _qmid(rho: np.ndarray, info: float, marginals) -> float:
    sigma = _dephased(rho, marginals)
    return info - _information(sigma, _checked_eig(sigma, "entropy input"))[0]


def qmid(rho: np.ndarray) -> float:
    """Measurement-induced disturbance: mutual information lost on dephasing."""
    rho, dec = _two_qubit(rho)
    return _qmid(rho, *_information(rho, dec))


_BELL_OUTCOMES = np.array(
    [
        [[1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[0, 1], [-1, 0]],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def teleport_fidelity_mc(rho: np.ndarray, samples: int, seed: int = 0) -> float:
    """Monte-Carlo average fidelity of teleportation through rho.

    Haar-uniform pure inputs are drawn from a seeded generator, the
    sender measures in the Bell basis, and for each outcome the receiver
    applies the Pauli (or identity) correction with the highest average
    fidelity. Rounded addition is monotone, so these per-outcome maxima,
    summed in outcome order, are exactly the best of all 256 assignments
    of a correction to each outcome.

    Parameters
    ----------
    rho : two-qubit resource state
    samples : number of Haar samples, at least 1
    seed : generator seed; identical seeds reproduce the estimate exactly
    """
    rho, _ = _two_qubit(rho)
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    theta = np.arccos(1.0 - 2.0 * rng.random(samples))
    phi = 2.0 * np.pi * rng.random(samples)
    psi = np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
    )

    # amp[n, k, b] = <bell_k| (psi_n (x) |b>) contracted on the sender pair
    amp = np.einsum("kab,na->nkb", _BELL_OUTCOMES.conj(), psi)
    rho4 = rho.reshape(2, 2, 2, 2)
    # cond[n, k] is the receiver's unnormalized post-measurement state;
    # its trace is the outcome probability q_k.
    cond = np.einsum("nkb,brcs,nkc->nkrs", amp, rho4, amp.conj())

    acc = np.empty((4, 4))
    for p_idx, pauli in enumerate(_SIGMAS):
        w = psi @ pauli.conj()
        fid = np.einsum("nr,nkrs,ns->nk", w.conj(), cond, w).real
        acc[:, p_idx] = fid.mean(axis=0)
    return float(sum(acc[k].max() for k in range(4)))


def measure_report(rho: np.ndarray) -> MeasureReport:
    """All scalar measures of one state in a single record."""
    rho, dec = _two_qubit(rho)
    lam = _gamma_spectrum(rho)
    info, marginals = _information(rho, dec)
    return MeasureReport(
        bell_B=_bell_B(lam),
        concurrence=_concurrence(rho, dec),
        f_max=_f_max(lam),
        qmid=_qmid(rho, info, marginals),
        mutual_information=info,
    )
