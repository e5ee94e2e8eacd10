"""Qubit channel algebra: Kraus maps, Choi matrices, and the inverse map.

A KrausMap is a sign vector s, shape (k,), and an operator stack K, shape
(k, d, d), realizing rho -> sum_j s_j K_j rho K_j^dag. All-positive signs with
sum K^dag K = I is an ordinary CP trace-preserving channel; the signed form covers
Hermitian maps written as a difference of two CP pieces, as the inverse needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmat import _dag, _hermitian, _jacobi
from .unruh import _check_angle, _reals


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Signed operator-sum form of a Hermitian qubit map; == is identity."""

    signs: np.ndarray
    ops: np.ndarray

    def __post_init__(self):
        try:
            ops = np.asarray(self.ops, dtype=complex)
        except ValueError as exc:
            raise ValueError("Kraus operators do not stack into one array") from exc
        if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"Kraus stack shape {ops.shape} is not (k >= 1, d, d)")
        signs = np.asarray(self.signs)
        if signs.shape != ops.shape[:1] or not set(signs.tolist()) <= {1, -1}:
            raise ValueError(f"need {len(ops)} signs of +1 or -1, got {signs.tolist()}")
        object.__setattr__(self, "signs", signs.astype(int))
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """4x4 dual matrix of a qubit map, of trace 1 if it preserves trace; == is identity."""

    matrix: np.ndarray

    def __post_init__(self):
        if np.shape(self.matrix) != (4, 4):
            raise ValueError(f"Choi matrix must be 4x4, got {np.shape(self.matrix)}")
        object.__setattr__(self, "matrix", _hermitian(self.matrix, "Choi matrix"))


def _damping(keep, lose, sign: int) -> KrausMap:
    # The operator layout of the damping maps: (+1, diag(keep, 1)), (sign, lose |1><0|).
    ops = np.array([[[keep, 0.0], [0.0, 1.0]], [[0.0, 0.0], [lose, 0.0]]], dtype=complex)
    return KrausMap(np.array([1, sign]), ops)


class CpVerdict(NamedTuple):
    is_cp: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray  # full Choi spectrum, descending


def unruh_kraus(r: float) -> KrausMap:
    """Channel seen by the accelerated observer, with mixing angle r.

    Two operators: diag(cos r, 1) and the lowering term sin r |1><0|.
    Formally an amplitude damping channel of strength sin^2 r, except
    the damping drives population toward |1> rather than |0>.
    """
    r = _check_angle(r)
    return _damping(np.cos(r), np.sin(r), 1)


def amplitude_damping(gamma: float) -> KrausMap:
    """Damping channel with operators diag(sqrt(1-gamma), 1), sqrt(gamma)|1><0|.

    The convention matches unruh_kraus: amplitude_damping(sin^2 r) equals
    unruh_kraus(r) up to the last bit, as sqrt(1 - sin^2 r) may not be cos r.
    """
    g = _reals(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"damping strength {gamma} outside [0, 1]")
    return _damping(np.sqrt(1.0 - g), np.sqrt(g), 1)


def inverse_unruh(r: float) -> KrausMap:
    """Formal inverse of unruh_kraus(r), a difference of two CP pieces.

    Terms (+1, diag(1/cos r, 1)) and (-1, tan r |1><0|). The signed
    completeness relation K1^dag K1 - K2^dag K2 = I holds, and the map
    undoes the channel exactly, but its Choi matrix has a negative
    eigenvalue for every r > 0, so it is not completely positive.
    """
    r = _check_angle(r)
    return _damping(1.0 / np.cos(r), np.tan(r), -1)


def apply(kmap: KrausMap, rho: np.ndarray) -> np.ndarray:
    """Evaluate sum_j sign_j K_j rho K_j^dag.

    rho may be any square matrix of matching dimension; linearity on
    the full operator basis is what the Choi construction relies on.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kmap.dim, kmap.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match map dimension {kmap.dim}"
        )
    return (kmap.signs[:, None, None] * (kmap.ops @ rho @ _dag(kmap.ops))).sum(axis=0)


def apply_to_second(kmap: KrausMap, rho: np.ndarray) -> np.ndarray:
    """Act with the map on the second qubit of a two-qubit state."""
    return apply(KrausMap(kmap.signs, np.kron(np.eye(kmap.dim), kmap.ops)), rho)


def completeness_defect(kmap: KrausMap) -> float:
    """Max-norm distance of sum_j sign_j K_j^dag K_j from the identity."""
    acc = (kmap.signs[:, None, None] * (_dag(kmap.ops) @ kmap.ops)).sum(axis=0)
    return float(np.max(np.abs(acc - np.eye(kmap.dim))))


def compose(outer: KrausMap, inner: KrausMap) -> KrausMap:
    """Map applying inner first, then outer; term signs multiply, outer-major."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch {outer.dim} vs {inner.dim}")
    ops = (outer.ops[:, None] @ inner.ops).reshape(-1, outer.dim, outer.dim)
    return KrausMap(np.outer(outer.signs, inner.signs).ravel(), ops)


def choi_matrix(kmap: KrausMap) -> ChoiMatrix:
    """Dual matrix sum_{jk} |j><k| (x) E(|j><k|) / 2 of a qubit map."""
    if kmap.dim != 2:
        raise ValueError(f"Choi construction expects a qubit map, dim {kmap.dim}")
    # sum_k sign_k vec(K_k) vec(K_k)^dag, vec column-major as in kraus_from_choi.
    v = kmap.ops.swapaxes(-1, -2).reshape(-1, 4)
    m = (kmap.signs[:, None, None] * (v[:, :, None] * v.conj()[:, None, :])).sum(axis=0)
    return ChoiMatrix(m / 2.0)


def _roundoff(lam: np.ndarray) -> float:
    # n eps max|lam|: the size of the error the solve of an n x n matrix
    # can leave on an exact zero eigenvalue, relative to the largest one.
    return len(lam) * np.finfo(float).eps * float(np.max(np.abs(lam)))


def kraus_from_choi(choi: ChoiMatrix) -> KrausMap:
    """Recover a signed operator-sum form from a Choi matrix.

    The solve runs on twice the trace-1 matrix, sum_k s_k vec(K_k) vec(K_k)^dag.
    Each eigenvector whose |eigenvalue| clears the roundoff floor
    4 eps max|eigenvalue| is scaled to norm sqrt(|eigenvalue|) and folded
    column-major, (v0,v1,v2,v3) becoming [[v0, v2], [v1, v3]]; the
    eigenvalue's sign becomes the term sign.
    """
    lam, vecs = _jacobi(2.0 * choi.matrix)
    keep = np.abs(lam) > _roundoff(lam)
    ops = (np.sqrt(np.abs(lam[keep])) * vecs[:, keep]).T.reshape(-1, 2, 2)
    return KrausMap(np.sign(lam[keep]), ops.swapaxes(-1, -2))


def is_cp(choi: ChoiMatrix) -> CpVerdict:
    """Complete positivity test: no Choi eigenvalue below -4 eps max|eigenvalue|.

    kraus_from_choi drops the eigenvalues within this roundoff floor of zero.
    """
    lam = _jacobi(choi.matrix, vectors=False).eigenvalues
    return CpVerdict(bool(lam[-1] >= -_roundoff(lam)), float(lam[-1]), lam)
