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


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


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
    rho : square matrix over the full product space
    dims : list of subsystem dimensions, leftmost factor first
    traced : index into dims of the factor to remove

    Returns
    -------
    The reduced matrix over the remaining factors, in their original order.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(
            f"matrix shape {rho.shape} does not match subsystem dims {dims}"
        )
    if not 0 <= traced < len(dims):
        raise ValueError(f"traced index {traced} out of range for {len(dims)} factors")
    k = len(dims)
    resh = rho.reshape(dims + dims)
    reduced = np.trace(resh, axis1=traced, axis2=k + traced)
    keep = total // dims[traced]
    return reduced.reshape(keep, keep)


def _jacobi_rotation(alpha: float, beta: float, g: complex) -> np.ndarray:
    # 2x2 unitary J with J^dag [[alpha, g],[conj(g), beta]] J diagonal.
    # The phase of g is absorbed first, then a standard real rotation
    # annihilates the off-diagonal entry.
    absg = abs(g)
    phase = g / absg
    tau = (beta - alpha) / (2.0 * absg)
    if tau >= 0:
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    return np.array([[c, s], [-s * phase.conjugate(), c * phase.conjugate()]])


def eig_hermitian(m: np.ndarray, max_sweeps: int = 100) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Deterministic by construction: fixed sweep order over the upper
    triangle, convergence when the off-diagonal Frobenius norm drops to
    1e-13, eigenvalues sorted descending with exact ties broken by
    lexicographic comparison of the (phase-fixed) eigenvector entries.

    Raises
    ------
    ValueError
        If the input is not Hermitian within tolerance.
    JacobiConvergenceError
        If max_sweeps cyclic sweeps do not reach the threshold.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-10")
    n = m.shape[0]
    a = (m + m.conj().T) / 2.0
    v = np.eye(n, dtype=complex)

    converged = False
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= 1e-13:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                if abs(g) == 0.0:
                    continue
                j2 = _jacobi_rotation(a[p, p].real, a[q, q].real, g)
                j = np.eye(n, dtype=complex)
                j[np.ix_([p, q], [p, q])] = j2
                a = j.conj().T @ a @ j
                v = v @ j
    else:
        converged = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2)) <= 1e-13
    if not converged:
        raise JacobiConvergenceError(
            f"no convergence after {max_sweeps} sweeps on dimension {n}"
        )

    lam = np.real(np.diag(a)).copy()
    vecs = v.copy()
    # Fix each eigenvector's global phase so its first significant entry
    # is real and positive; this makes the tie-break below well defined.
    for i in range(n):
        col = vecs[:, i]
        for x in col:
            if abs(x) > 1e-12:
                vecs[:, i] = col * (x.conjugate() / abs(x))
                break

    def tie_key(i):
        col = vecs[:, i]
        return tuple(t for x in col for t in (x.real, x.imag))

    order = sorted(range(n), key=lambda i: (-lam[i], tie_key(i)))
    return EigenDecomposition(lam[order], vecs[:, order])


def _checked_eig(m: np.ndarray, name: str) -> EigenDecomposition:
    # Density-matrix checks; the spectrum the positivity check solves is kept.
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    tr = np.trace(m)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"{name} has trace {tr}, expected 1")
    dec = eig_hermitian(m)
    if dec.eigenvalues[-1] < PSD_TOL:
        raise ValueError(f"{name} has negative eigenvalue {dec.eigenvalues[-1]}")
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
    vecs, root = dec.eigenvectors, np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    return vecs @ np.diag(root) @ vecs.conj().T


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-8, 0) are treated as roundoff and clamped to
    zero; anything below that is rejected.
    """
    dec = eig_hermitian(m)
    if dec.eigenvalues[-1] < -1e-8:
        raise ValueError(f"matrix is not PSD, eigenvalue {dec.eigenvalues[-1]}")
    return _psd_root(dec)


def _entropy(lam: np.ndarray) -> float:
    s = 0.0
    for x in lam:
        if x > 0.0:
            s -= x * np.log2(x)
    return float(s)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits, with 0*log0 taken as 0."""
    return _entropy(_checked_eig(rho, "entropy input").eigenvalues)


def pure_qubit(theta: float, phi: float) -> np.ndarray:
    """State vector cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )
