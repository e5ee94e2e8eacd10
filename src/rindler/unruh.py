"""Acceleration-induced mode mixing for a single Dirac mode.

Natural units throughout (hbar = c = k_B = 1). The mixing angle r sits
in [0, pi/4], with 1e-12 of roundoff allowed above pi/4: r = 0 is an
observer at rest, r = pi/4 is the infinite acceleration limit where
cos^2 r = 1/2.
"""

from __future__ import annotations

import contextlib

import numpy as np

R_MAX = np.pi / 4


def _reals(x, arrays: bool = False) -> np.ndarray:
    # x as floats; nan, which fails every range check, if x is no real number (with
    # arrays, no non-empty array of them). A numeric str or a ragged list is none.
    with contextlib.suppress(ValueError, TypeError, OverflowError):
        x = np.asarray(x)
        if x.dtype.kind in "biufO" and x.size and (arrays or not x.ndim):
            return np.asarray(x * 1.0, float)
    return np.asarray(np.nan)


def _shown(x) -> np.ndarray:
    # np.asarray(x) for a message; a ragged list, no array to numpy, prints as given.
    with contextlib.suppress(ValueError):
        return np.asarray(x)
    return np.fromiter([x], object).reshape(())


def _positive(x, what: str, arrays: bool = False) -> np.ndarray:
    f = _reals(x, arrays)
    if not (0 < f.min() and f.max() < np.inf):
        raise ValueError(f"{what} must be positive and finite, got {_shown(x)}")
    return f


def cos_r(a: float, omega: float) -> float:
    """Mode-mixing cosine for acceleration a and mode frequency omega.

    Returns 1/sqrt(exp(-2 pi omega / a) + 1), which decreases
    monotonically from 1 (a -> 0) to 1/sqrt(2) (a -> infinity). An array
    of accelerations gives an array, each entry as for that a alone.
    """
    a, omega = _positive(a, "acceleration", arrays=True), _positive(omega, "mode frequency")
    # omega / a overflows to inf for a tiny a; exp(-inf) = 0 gives c = 1, its limit.
    with np.errstate(over="ignore"):
        c = 1.0 / np.sqrt(np.exp(-2.0 * np.pi * omega / a) + 1.0)
    return c if np.ndim(c) else float(c)


def mixing_angle(a: float, omega: float) -> float:
    """Mixing angle r, tan r = exp(-pi omega / a), for acceleration a and frequency omega.

    arccos(cos_r(a, omega)) without its cancellation as r -> 0; takes arrays as cos_r.
    """
    a, omega = _positive(a, "acceleration", arrays=True), _positive(omega, "mode frequency")
    with np.errstate(over="ignore"):  # omega / a = inf for a tiny a: r = 0, its limit
        r = np.arctan(np.exp(-np.pi * omega / a))
    return r if np.ndim(r) else float(r)


def unruh_temperature(a: float) -> float:
    """Thermal temperature a / (2 pi) perceived at proper acceleration a."""
    return float(_positive(a, "acceleration") / (2.0 * np.pi))


def _check_angle(r: float, arrays: bool = False) -> float:
    arr = _reals(r, arrays) + 0.0  # -0 as +0
    bad = ~((0.0 <= arr) & (arr <= R_MAX + 1e-12))
    if np.count_nonzero(bad):
        raise ValueError(f"mixing angle {_shown(r)[bad][0]} outside [0, pi/4]")
    return arr if arr.ndim else float(arr)


def three_mode_state(r: float) -> np.ndarray:
    """Pure state of (observer A, wedge-I mode, wedge-II mode) as an 8-vector.

    The inertial half of the entangled pair expands over the two wedge
    modes: the vacuum contributes cos r |00> + sin r |11>, the excited
    mode occupies wedge I only. Basis order |A>|I>|II>.
    """
    r = _check_angle(r)
    psi = np.zeros(8, dtype=complex)
    psi[0b000] = np.cos(r) / np.sqrt(2.0)
    psi[0b011] = np.sin(r) / np.sqrt(2.0)
    psi[0b110] = 1.0 / np.sqrt(2.0)
    return psi


def shared_state(r: float) -> np.ndarray:
    """Two-qubit state held by A and the wedge-I observer.

    This is the mode-II partial trace of three_mode_state(r): an X-form
    matrix with diagonal (cos^2 r, sin^2 r, 0, 1)/2 and coherence
    cos(r)/2 between |00> and |11>. At r = 0 it is the maximally
    entangled pair. A non-empty array of angles gives a stack (..., 4, 4).
    """
    r = _check_angle(r, arrays=True)
    c = np.cos(r)
    rho = np.zeros(np.shape(r) + (4, 4), dtype=complex)
    rho[..., 0, 0] = c * c / 2.0
    rho[..., 0, 3] = rho[..., 3, 0] = c / 2.0
    # libm pow's square, as s ** 2: an array square differs in ~0.1% of last bits.
    rho[..., 1, 1] = np.float_power(np.sin(r), 2.0) / 2.0
    rho[..., 3, 3] = 0.5
    return rho
