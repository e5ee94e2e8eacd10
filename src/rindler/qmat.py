"""Dense complex linear algebra for small fixed dimensions.

Everything in this package works on plain numpy arrays of dimension 2, 4
or 8. This module supplies the shared plumbing: Pauli matrices, partial
traces, a deterministic Hermitian eigensolver, the PSD matrix square root
and von Neumann entropy.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = -1e-10
_TINY = np.finfo(float).tiny
_MAX_SWEEPS = 100
# a @ b, stacked, by numpy's own loop: BLAS rounds by the kernel the CPU picks.
_mm = functools.partial(np.einsum, "...ij,...jk->...ik")

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class JacobiConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep limit is reached without convergence."""


class EigenDecomposition(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real, sorted descending; eigenvectors is a unitary matrix
    whose columns follow them in order, or None from the spectrum-only solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _dag(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _hermitian(m: np.ndarray, name: str) -> np.ndarray:
    # The shape and Hermiticity checks of every input matrix, or stack of them.
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"expected a non-empty matrix or stack, got shape {m.shape}")
    if not np.abs(m - _dag(m)).max() <= HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    return m


def _whole(x, least: int, what: str) -> int:
    with contextlib.suppress(TypeError):  # a str, None or complex is no count either
        if least <= x <= sys.maxsize and x == int(x):  # numpy's longest array
            return int(x)
    raise ValueError(
        f"{what} must be a whole number >= {least} and <= {sys.maxsize}, got {x!r}")


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
    dims = [_whole(d, 1, "subsystem dimension") for d in dims]
    total = math.prod(dims)
    if rho.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {rho.shape} does not match subsystem dims {dims}"
        )
    # A fractional or non-numeric index equals no entry of the range.
    if traced not in range(len(dims)):
        raise ValueError(f"traced index {traced} out of range for {len(dims)} factors")
    traced = int(traced)
    lead, k = rho.shape[:-2], len(dims)
    resh = rho.reshape(lead + tuple(dims + dims))
    reduced = np.trace(resh, axis1=len(lead) + traced, axis2=len(lead) + k + traced)
    keep = total // dims[traced]
    return reduced.reshape(lead + (keep, keep))


def _unconverged(a: np.ndarray, live):
    # The matrices of a[..., live] whose off-diagonal Frobenius norm exceeds 1e-13 of
    # their whole one (above a rotation's ~n eps roundoff; the rotations keep the whole
    # norm, so it is the input's): live itself while that is all of them, None once it
    # is none. Both norms are of the matrix over its largest |entry|, whose squares
    # neither underflow nor overflow; entries below _TINY, which _rotate leaves, are 0.
    n = a.shape[0]
    x = np.abs(a[..., live]).reshape(n * n, -1)
    x[x < _TINY] = 0.0
    x /= np.maximum(np.maximum.reduce(x, 0), _TINY)
    # One C-order row a matrix: a lone matrix's sum then adds as one of a stack's.
    sq = np.square(x.T, order="C")
    whole = np.add.reduce(sq, 1)
    sq[:, :: n + 1] = 0.0
    keep = ~(np.add.reduce(sq, 1) <= 1e-26 * whole)
    kept = np.count_nonzero(keep)  # an empty stack keeps none: it ends the solve
    if kept == len(keep) > 0:
        return live
    return np.arange(a.shape[-1])[live][keep] if kept else None


def _rotate(av: np.ndarray, live, p: int, q: int) -> None:
    # One Jacobi step on entry (p, q) of each matrix in av[..., live] (a's rows over v's,
    # stacked last for einsum's loop), in place: columns p, q, then rows p, q of a turn by
    # r, which absorbs g's phase, then annihilates g. |g| < _TINY is 0: g / |g| overflows.
    g = av[p, q, live]
    absg = np.hypot(g.real, g.imag)
    turn = absg >= _TINY
    turned = np.count_nonzero(turn)
    if not turned:
        return
    if turned < len(turn):
        live, g, absg = np.arange(av.shape[-1])[live][turn], g[turn], absg[turn]
    phase = (g / absg).conj()
    tau = (av[q, q, live].real - av[p, p, live].real) / (2.0 * absg)
    t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    np.negative(t, out=t, where=tau < 0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    r = np.array([[c, s], [-s * phase, c * phase]])
    x, pq = av[..., live], slice(p, q + 1, q - p)  # rows or columns p and q
    x[:, pq] = np.einsum("ijk,jlk->ilk", x[:, pq], r)
    x[pq] = np.einsum("jik,jlk->ilk", r.conj(), x[pq])
    av[..., live] = x


def eig_hermitian(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    Cyclic Jacobi rotations, deterministic by construction: fixed sweep
    order over the upper triangle, convergence of each matrix when its
    off-diagonal Frobenius norm drops to 1e-13 of its whole one (at any scale;
    entries below the smallest normal float count as zero and are not turned),
    eigenvalues sorted descending with exact ties broken by lexicographic
    comparison of the (phase-fixed) eigenvector entries. A stack (..., n, n)
    is solved in one pass, each matrix to the same bits as when solved alone.

    Raises
    ------
    ValueError
        If the input is not Hermitian within tolerance.
    JacobiConvergenceError
        If 100 cyclic sweeps do not reach the threshold.
    """
    return _jacobi(_hermitian(m, "matrix"))


def _jacobi(m: np.ndarray, vectors=True) -> EigenDecomposition:
    # eig_hermitian without its checks, for a matrix already checked or
    # Hermitian by construction (gamma^T gamma arrives real, hence the cast).
    # vectors=False runs the same rotations, which depend on a alone, and no more.
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    a = ((m + _dag(m)) / 2.0).reshape(-1, n, n)
    av = np.eye(2 * n if vectors else n, n, -n, complex)[..., None].repeat(len(a), -1)
    av[:n] = a.transpose(1, 2, 0)

    # live selects the matrices still rotating: all of them, as a slice,
    # until one converges, then an index array. tau overflows only for a
    # tiny |g|; t is then 0, its limit, and the rotation absorbs g's phase.
    with np.errstate(over="ignore"):
        live = rotating = _unconverged(av[:n], slice(None))
        for _ in range(_MAX_SWEEPS):
            if live is None:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(av, live, p, q)
            live = _unconverged(av[:n], live)
    if live is not None:
        raise JacobiConvergenceError(
            f"no convergence after {_MAX_SWEEPS} sweeps on dimension {n}"
        )

    lam, v = av[:n].diagonal(0, 0, 1).real, av[n:].transpose(2, 0, 1)
    rows, cols = np.arange(len(a))[:, None], np.arange(n)
    if vectors and rotating is not None:
        # Fix each eigenvector's global phase so its first entry above 1e-12 is real
        # and positive; this makes the tie-break below well defined. Roundoff on a zero
        # (~1e-16) never passes 1e-12; a unit column's largest entry (>= 1/sqrt n) does.
        absv = np.hypot(v.real, v.imag)
        first = (absv > 1e-12).argmax(axis=-2)
        v = v * (v[rows, first, cols].conj() / absv[rows, first, cols])[:, None, :]
        # Sort by -lam, then by (re, im) of each eigenvector entry, top row first.
        keys, w = np.empty((2 * n + 1, len(a), n)), v.swapaxes(0, 1)
        keys[-1], keys[-2::-2], keys[-3::-2] = -lam, w.real, w.imag
        order = np.lexsort(keys)
    else:  # As the sort above orders identity vectors: ties highest index first.
        order = (n - 1) - (-lam[:, ::-1]).argsort(axis=-1, kind="stable")
    if not vectors:
        return EigenDecomposition(lam[rows, order].reshape(m.shape[:-1]), None)
    lam, vecs = lam[rows, order], v[rows[:, None], cols[:, None], order[:, None]]
    return EigenDecomposition(lam.reshape(m.shape[:-1]), vecs.reshape(m.shape))


def _floored(dec: EigenDecomposition, floor: float, what: str) -> EigenDecomposition:
    # dec, if no matrix's least eigenvalue is below floor; else name the first that is.
    low = dec.eigenvalues[..., -1]
    if np.count_nonzero(low < floor):
        raise ValueError(f"{what} {low[low < floor][0]}")
    return dec


def _checked_eig(m: np.ndarray, name: str, vectors=True) -> EigenDecomposition:
    # Density-matrix checks of a matrix or a stack, naming its first bad one.
    m = _hermitian(m, name)
    # 1e-10 as HERMITIAN_TOL: above float and 12-digit-text trace errors.
    tr = np.asarray(m.trace(axis1=-2, axis2=-1))
    bad = np.hypot(tr.real - 1.0, tr.imag) > 1e-10
    if np.count_nonzero(bad):
        raise ValueError(f"{name} has trace {tr[bad][0]}, expected 1")
    return _floored(_jacobi(m, vectors), PSD_TOL, f"{name} has negative eigenvalue")


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check one matrix of dimension 2, 4 or 8 for Hermiticity, unit trace and
    positivity; return it as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise ValueError(f"rho must be one matrix, got shape {rho.shape}")
    if rho.shape[0] not in (2, 4, 8):
        raise ValueError(f"rho has unsupported dimension {rho.shape[0]}")
    _checked_eig(rho, "rho", vectors=False)
    return rho


def _psd_root(dec: EigenDecomposition) -> np.ndarray:
    # V diag(root) V^dag: scaling the columns of V is the diagonal product.
    lam, vecs = dec
    return _mm(vecs * np.sqrt(np.maximum(lam, 0.0))[..., None, :], _dag(vecs))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each in a stack.

    Eigenvalues in [-1e-8, 0) are treated as roundoff and clamped to zero;
    anything below is rejected. m need not be a state, so not PSD_TOL: the
    roundoff n eps ||m|| stays under 1e-8 for ||m|| up to ~1e7.
    """
    return _psd_root(_floored(eig_hermitian(m), -1e-8, "matrix is not PSD, eigenvalue"))


def _entropy(lam: np.ndarray) -> np.ndarray:
    # -sum(x log2 x) over the last axis, in order, skipping x <= 0.
    pos = lam > 0.0
    terms = np.where(pos, lam * np.log2(np.where(pos, lam, 1.0)), 0.0)
    return np.subtract.reduce(terms, -1, initial=0.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits, with 0*log0 taken as 0."""
    if np.ndim(rho) > 2:
        raise ValueError(f"entropy input must be one matrix, got shape {np.shape(rho)}")
    return float(_entropy(_checked_eig(rho, "entropy input", vectors=False).eigenvalues))


def pure_qubit(theta: float, phi: float) -> np.ndarray:
    """State vector cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )
