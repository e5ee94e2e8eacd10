"""Bloch-sphere picture of the acceleration channel.

The channel maps the unit sphere onto an oblate spheroid centered at
(0, 0, -sin^2 r) with equatorial semi-axis cos r and polar semi-axis
cos^2 r; the image surface touches the unit sphere at the south pole
for every r. All general-r formulas here are validated in the test
suite against direct channel application.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qmat import PAULIS, _whole
from .unruh import _check_angle, _reals


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


class SpheroidReport(NamedTuple):
    center: BlochVector
    semi_axis_equatorial: float
    semi_axis_polar: float
    eccentricity: float
    volume_fraction: float


def bloch_of(rho: np.ndarray) -> BlochVector:
    """Coordinates (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho.shape}")
    return BlochVector(*np.einsum("ij,kji->k", rho, PAULIS).real.tolist())


def _check_sphere_angles(theta: float, phi: float) -> tuple[float, float]:
    t, p = _reals(theta), _reals(phi)
    if not 0.0 <= t <= np.pi + 1e-12:
        raise ValueError(f"polar angle {theta} outside [0, pi]")
    if not 0.0 <= p < 2.0 * np.pi:
        raise ValueError(f"azimuthal angle {phi} outside [0, 2*pi)")
    return float(t), float(p)


def image_of_pure(theta: float, phi: float, r: float) -> BlochVector:
    """Bloch vector of the channel output for the pure input (theta, phi).

    Closed form: the equatorial components shrink by cos r and the
    polar one becomes cos(2r) cos^2(theta/2) - sin^2(theta/2).
    """
    theta, phi = _check_sphere_angles(theta, phi)
    x, y, z = _image(_check_angle(r), np.array([theta]), np.array([phi]))
    return BlochVector(x.item(), y.item(), z.item())


def radius_from_center(theta: float) -> float:
    """Distance of the infinite-acceleration image from its center (0,0,-1/2).

    Equals sqrt(3 - cos 2 theta) / (2 sqrt 2): 1/2 at the poles, 1/sqrt 2
    on the equator.
    """
    theta = _check_sphere_angles(theta, 0.0)[0]
    return float(np.sqrt(3.0 - np.cos(2.0 * theta)) / (2.0 * np.sqrt(2.0)))


def spheroid_report(r: float) -> SpheroidReport:
    """Geometric summary of the channel's image of the Bloch sphere.

    Every field is in closed form: the volume fraction of a spheroid is the
    product of its semi-axes, equatorial^2 * polar = cos^4 r, and the
    eccentricity sqrt(1 - (polar / equatorial)^2) is sin r, computed as such
    since the subtraction cancels as r goes to 0.
    """
    r = _check_angle(r)
    equatorial = float(np.cos(r))
    polar = float(np.cos(r) ** 2)
    center = BlochVector(0.0, 0.0, -float(np.sin(r) ** 2))
    return SpheroidReport(center, equatorial, polar, float(np.sin(r)),
                          equatorial**2 * polar)


def _image(r: float, theta: np.ndarray, phi: np.ndarray):
    """x, y (len theta, len phi) and z (len theta) of the images of pure inputs;
    z from Python floats, as scalar ** (pow) and an array square can differ."""
    radial = (np.cos(r) * np.sin(theta))[:, None]
    c2 = math.cos(2.0 * r)
    z = [c2 * math.cos(t / 2.0) ** 2 - math.sin(t / 2.0) ** 2 for t in theta.tolist()]
    return radial * np.cos(phi), radial * np.sin(phi), np.array(z)


def surface_grid(r: float, n_theta: int, n_phi: int):
    """Image points on a (theta, phi) grid, as the tuple (theta, phi, x, y, z).

    theta, shape (n_theta,), runs over n_theta points including both poles;
    phi, shape (n_phi,), over n_phi points with the 2*pi endpoint excluded.
    x and y have shape (n_theta, n_phi) and z, shape (n_theta,), depends on
    theta alone: the input (theta[i], phi[j]) maps to (x[i, j], y[i, j], z[i]).
    """
    n_theta, n_phi = _whole(n_theta, 2, "n_theta"), _whole(n_phi, 2, "n_phi")
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return (theta, phi, *_image(_check_angle(r), theta, phi))
