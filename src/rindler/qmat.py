"""Dense complex linear algebra for small fixed dimensions.

Everything in this package works on plain numpy arrays of dimension 2, 4
or 8. This module supplies the shared plumbing: Pauli matrices, tensor
products, partial traces, a deterministic Hermitian eigensolver, the PSD
matrix square root and von Neumann entropy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = -1e-10
_TINY = np.finfo(float).tiny

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep limit is reached without convergence."""


class EigenDecomposition(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors is a unitary
    matrix whose columns correspond to the eigenvalues in order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _dag(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - _dag(m))) <= tol)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with basis ordering |j>_a |k>_b -> j*dim_b + k.

    The result dimension is capped at 8, matching the largest carrier
    used anywhere in the package.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0] * b.shape[0]
    if dim > 8:
        raise ValueError(f"tensor result dimension {dim} exceeds 8")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, dims: list[int], traced: int) -> np.ndarray:
    """Trace out one tensor factor of a multipartite matrix.

    Parameters
    ----------
    rho : square matrix over the full product space, or a stack of them
    dims : list of subsystem dimensions, leftmost factor first
    traced : index into dims of the factor to remove

    Returns
    -------
    The reduced matrix over the remaining factors, in their original order.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {rho.shape} does not match subsystem dims {dims}"
        )
    if not 0 <= traced < len(dims):
        raise ValueError(f"traced index {traced} out of range for {len(dims)} factors")
    lead, k = rho.shape[:-2], len(dims)
    resh = rho.reshape(lead + tuple(dims + dims))
    reduced = np.trace(resh, axis1=len(lead) + traced, axis2=len(lead) + k + traced)
    keep = total // dims[traced]
    return reduced.reshape(lead + (keep, keep))


def _unconverged(a: np.ndarray, live):
    # The matrices of a[live] whose off-diagonal Frobenius norm exceeds
    # 1e-13: live itself while that is all of them, None once it is none.
    n = a.shape[-1]
    sq = np.abs(a[live]).reshape(-1, n * n) ** 2
    sq[:, :: n + 1] = 0.0
    norm = np.sqrt(np.sum(sq, axis=-1))
    keep = ~(norm <= 1e-13)
    if np.count_nonzero(keep) == len(keep):
        return live
    return np.arange(len(a))[live][keep] if np.count_nonzero(keep) else None


def _rotate(a: np.ndarray, v: np.ndarray, live, p: int, q: int, eye) -> None:
    # One Jacobi step on entry (p, q) of every matrix in a[live], in place.
    # The phase of g is absorbed first, then a real rotation annihilates it.
    # |g| below the smallest normal float counts as zero: g / |g| overflows.
    g = a[live, p, q]
    absg = np.hypot(g.real, g.imag)
    turn = absg >= _TINY
    if not np.count_nonzero(turn):
        return
    if np.count_nonzero(turn) < len(turn):
        live, g, absg = np.arange(len(a))[live][turn], g[turn], absg[turn]
    phase = (g / absg).conj()
    tau = (a[live, q, q].real - a[live, p, p].real) / (2.0 * absg)
    t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    np.negative(t, out=t, where=tau < 0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    j = np.empty((len(g),) + eye.shape, dtype=complex)
    j[:] = eye
    j[:, p, p], j[:, p, q], j[:, q, p], j[:, q, q] = c, s, -s * phase, c * phase
    a[live] = _dag(j) @ a[live] @ j
    v[live] = v[live] @ j


def eig_hermitian(m: np.ndarray, max_sweeps: int = 100) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    Cyclic Jacobi rotations, deterministic by construction: fixed sweep
    order over the upper triangle, convergence of each matrix when its
    off-diagonal Frobenius norm drops to 1e-13, eigenvalues sorted
    descending with exact ties broken by lexicographic comparison of the
    (phase-fixed) eigenvector entries. A stack (..., n, n) is solved in
    one pass, each matrix to the same bits as when solved alone.

    Raises
    ------
    ValueError
        If the input is not Hermitian within tolerance.
    JacobiConvergenceError
        If max_sweeps cyclic sweeps do not reach the threshold.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-10")
    n, eye = m.shape[-1], np.eye(m.shape[-1], dtype=complex)
    a = ((m + _dag(m)) / 2.0).reshape(-1, n, n)
    v = np.broadcast_to(eye, a.shape).copy()

    # live selects the matrices still rotating: all of them, as a slice,
    # until one converges, then an index array. tau overflows only for a
    # tiny |g|; t is then 0, its limit, and the rotation absorbs g's phase.
    live = slice(None)
    with np.errstate(over="ignore"):
        for _ in range(max_sweeps):
            live = _unconverged(a, live)
            if live is None:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(a, v, live, p, q, eye)
        else:
            live = _unconverged(a, live)
    if live is not None:
        raise JacobiConvergenceError(
            f"no convergence after {max_sweeps} sweeps on dimension {n}"
        )

    lam = a.diagonal(axis1=-2, axis2=-1).real
    rows, cols = np.arange(len(a))[:, None], np.arange(n)
    # Fix each eigenvector's global phase so its first significant entry
    # is real and positive; this makes the tie-break below well defined.
    # The columns of v are unit vectors, so every one has such an entry.
    absv = np.hypot(v.real, v.imag)
    first = (absv > 1e-12).argmax(axis=-2)
    v = v * (v[rows, first, cols].conj() / absv[rows, first, cols])[:, None, :]
    # Sort by -lam, then by (re, im) of each eigenvector entry, top row first.
    entries = np.stack([v.real, v.imag], axis=-2).reshape(len(a), 2 * n, n)
    order = np.lexsort(np.concatenate([entries.swapaxes(0, 1)[::-1], -lam[None]]))
    lam, vecs = lam[rows, order], v[rows[:, None], cols[:, None], order[:, None]]
    return EigenDecomposition(lam.reshape(m.shape[:-1]), vecs.reshape(m.shape))


def _checked_eig(m: np.ndarray, name: str) -> EigenDecomposition:
    # Density-matrix checks of a matrix or a stack (errors name the first
    # bad one); the spectrum the positivity check solves is kept.
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    tr = np.asarray(np.trace(m, axis1=-2, axis2=-1))
    bad = np.hypot(tr.real - 1.0, tr.imag) > 1e-10
    if bad.any():
        raise ValueError(f"{name} has trace {tr[bad][0]}, expected 1")
    dec = eig_hermitian(m)
    low = dec.eigenvalues[..., -1]
    if (low < PSD_TOL).any():
        raise ValueError(f"{name} has negative eigenvalue {low[low < PSD_TOL][0]}")
    return dec


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got shape {rho.shape}")
    if rho.shape[0] not in (2, 4, 8):
        raise ValueError(f"{name} has unsupported dimension {rho.shape[0]}")
    _checked_eig(rho, name)
    return rho


def _psd_root(dec: EigenDecomposition) -> np.ndarray:
    # A stacked diag(root): the clipped root is +0 or more, so the
    # off-diagonal zeros are +0 as np.diag makes them.
    lam, vecs = dec
    root = np.sqrt(np.clip(lam, 0.0, None))[..., None, :] * np.eye(lam.shape[-1])
    return vecs @ root @ _dag(vecs)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-8, 0) are treated as roundoff and clamped to
    zero; anything below that is rejected.
    """
    dec = eig_hermitian(m)
    if dec.eigenvalues[-1] < -1e-8:
        raise ValueError(f"matrix is not PSD, eigenvalue {dec.eigenvalues[-1]}")
    return _psd_root(dec)


def _entropy(lam: np.ndarray) -> np.ndarray:
    # -sum(x log2 x) over the last axis, in order, skipping x <= 0.
    s = 0.0
    for x in np.moveaxis(lam, -1, 0):
        pos = x > 0.0
        s = s - np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)
    return s


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits, with 0*log0 taken as 0."""
    return float(_entropy(_checked_eig(rho, "entropy input").eigenvalues))


def pure_qubit(theta: float, phi: float) -> np.ndarray:
    """State vector cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )
