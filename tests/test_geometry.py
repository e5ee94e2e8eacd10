import json
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler.channels import apply, unruh_kraus
from rindler.geometry import (
    bloch_of,
    image_of_pure,
    radius_from_center,
    spheroid_report,
    surface_grid,
)
from rindler.qmat import pure_qubit

ASYMPTOTIC_CENTER = np.array([0.0, 0.0, -0.5])
GOLDEN = Path(__file__).parent / "golden"


class TestBlochOf:
    def test_north_pole(self):
        assert_allclose(bloch_of(np.diag([1.0, 0.0])), (0, 0, 1), atol=1e-14)

    def test_maximally_mixed(self):
        assert_allclose(bloch_of(np.eye(2) / 2), (0, 0, 0), atol=1e-14)

    def test_asymptotic_image_of_maximally_mixed(self):
        rho = apply(unruh_kraus(np.pi / 4), np.eye(2, dtype=complex) / 2)
        assert_allclose(bloch_of(rho), (0, 0, -0.5), atol=1e-14)

    def test_equator(self):
        psi = pure_qubit(np.pi / 2, 0.0)
        assert_allclose(bloch_of(np.outer(psi, psi.conj())), (1, 0, 0),
                        atol=1e-14)


class TestImageOfPure:
    def test_north_pole_maps_to_origin_asymptotically(self):
        for phi in (0.0, 1.0, 3.0):
            assert_allclose(image_of_pure(0.0, phi, np.pi / 4), (0, 0, 0),
                            atol=1e-14)

    def test_south_pole_is_fixed(self):
        for r in np.linspace(0, np.pi / 4, 12):
            for phi in (0.0, 2.0):
                assert_allclose(image_of_pure(np.pi, phi, r), (0, 0, -1),
                                atol=1e-12)

    def test_equatorial_point(self):
        got = image_of_pure(np.pi / 2, 0.0, np.pi / 4)
        assert_allclose(got, (1 / np.sqrt(2), 0, -0.5), atol=1e-14)

    def test_matches_channel_action(self):
        rng = np.random.default_rng(211)
        for _ in range(10000):
            theta = np.pi * rng.random()
            phi = 2 * np.pi * rng.random()
            r = (np.pi / 4) * rng.random()
            psi = pure_qubit(theta, phi)
            direct = bloch_of(apply(unruh_kraus(r), np.outer(psi, psi.conj())))
            assert_allclose(image_of_pure(theta, phi, r), direct, atol=1e-12)

    def test_midpoint_linearity(self):
        for r in np.linspace(0, np.pi / 4, 8):
            top = np.array(image_of_pure(0.0, 0.0, r))
            bottom = np.array(image_of_pure(np.pi, 0.0, r))
            mixed = bloch_of(apply(unruh_kraus(r), np.eye(2, dtype=complex) / 2))
            assert_allclose((top + bottom) / 2, mixed, atol=1e-12)

    @pytest.mark.parametrize(
        "theta,phi,r",
        [(-0.1, 0.0, 0.1), (3.5, 0.0, 0.1), (0.5, 7.0, 0.1), (0.5, 0.0, 1.0)],
    )
    def test_domain_errors(self, theta, phi, r):
        with pytest.raises(ValueError):
            image_of_pure(theta, phi, r)


class TestRadiusFromCenter:
    def test_equator(self):
        assert radius_from_center(np.pi / 2) == pytest.approx(1 / np.sqrt(2))

    def test_poles(self):
        assert radius_from_center(0.0) == pytest.approx(0.5)
        assert radius_from_center(np.pi) == pytest.approx(0.5)

    def test_intermediate_value(self):
        assert radius_from_center(np.pi / 3) == pytest.approx(
            0.6614378277661476, abs=1e-14
        )

    def test_consistent_with_asymptotic_image(self):
        rng = np.random.default_rng(223)
        for _ in range(200):
            theta = np.pi * rng.random()
            phi = 2 * np.pi * rng.random()
            p = np.array(image_of_pure(theta, phi, np.pi / 4))
            assert np.linalg.norm(p - ASYMPTOTIC_CENTER) == pytest.approx(
                radius_from_center(theta), abs=1e-10
            )


class TestSpheroidReport:
    def test_asymptotic_regime(self):
        rep = spheroid_report(np.pi / 4)
        assert rep.volume_fraction == pytest.approx(0.25, abs=1e-6)
        assert rep.eccentricity == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert_allclose(rep.center, (0, 0, -0.5), atol=1e-12)
        assert rep.semi_axis_equatorial == pytest.approx(1 / np.sqrt(2))
        assert rep.semi_axis_polar == pytest.approx(0.5)

    def test_identity_limit(self):
        rep = spheroid_report(0.0)
        assert rep.volume_fraction == pytest.approx(1.0, abs=1e-9)
        assert rep.eccentricity == pytest.approx(0.0, abs=1e-12)
        assert_allclose(rep.center, (0, 0, 0), atol=1e-14)

    def test_intermediate_angle(self):
        rep = spheroid_report(np.pi / 6)
        assert_allclose(rep.center, (0, 0, -0.25), atol=1e-12)
        assert rep.semi_axis_equatorial == pytest.approx(np.sqrt(3) / 2)
        assert rep.semi_axis_polar == pytest.approx(0.75)
        assert rep.volume_fraction == pytest.approx(0.5625, abs=1e-6)

    def test_volume_fraction_is_the_axes_product(self):
        # spheroid volume is (4 pi / 3) * equatorial^2 * polar, so the
        # fraction is equatorial^2 * polar for every r, bit for bit
        for r in np.linspace(0, np.pi / 4, 9):
            rep = spheroid_report(r)
            want = rep.semi_axis_equatorial ** 2 * rep.semi_axis_polar
            assert rep.volume_fraction == want

    def test_eccentricity_axes_identity(self):
        for r in np.linspace(0, np.pi / 4, 9):
            rep = spheroid_report(r)
            want = np.sqrt(
                1 - (rep.semi_axis_polar / rep.semi_axis_equatorial) ** 2
            )
            assert rep.eccentricity == pytest.approx(want, abs=1e-12)

    def test_takes_the_angle_alone(self):
        # The step count of the removed quadrature is no argument any more.
        with pytest.raises(TypeError):
            spheroid_report(0.3, 100)
        with pytest.raises(TypeError):
            spheroid_report(0.3, integration_steps=100)

    # Below about 1e-8, sin r and cos r round to r and 1: the report is the unit
    # sphere with eccentricity r, where sqrt(1 - (polar / equatorial)^2) gave 0.
    @pytest.mark.parametrize("r", [5e-324, 1.922034831393248e-162, 1e-10, 1e-9])
    def test_tiny_angles_keep_eccentricity_r(self, r):
        rep = spheroid_report(r)
        assert rep.eccentricity == r
        assert rep.semi_axis_equatorial == rep.semi_axis_polar == 1.0
        assert rep.volume_fraction == 1.0

    def test_golden_reports(self):
        # repr of every field for 30 angles (0, 1e-8, 0.3, pi/4 and seeded
        # random ones), recorded from the closed forms.
        cases = json.loads((GOLDEN / "spheroid_volume.json").read_text())["cases"]
        assert len(cases) == 30
        for case in cases:
            rep = spheroid_report(float(case["r"]))
            got = {"center": [repr(v) for v in rep.center],
                   **{k: repr(v) for k, v in zip(rep._fields[1:], rep[1:])}}
            assert got == {k: case[k] for k in got}, case


# A printed field may miss the correctly rounded 12-digit text of its exact
# value only where that value lies within TIE_EPS eps (relative) of a rounding
# tie, as the double lies between them: the fraction is cos r (within 1 ulp,
# 0.71 eps on [cos pi/4, 1]) to the fourth power with three roundings of eps / 2,
# under 5 eps from exact (2.6 eps at most here), and sin r is one libm call.
# The one miss among the 6001 angles below lies 0.79 eps from its tie.
TIE_EPS = 5
# Angles: 0, subnormal and tiny ones, the one near-tie miss, pi/4.
ORACLE_CORNERS = [0.0, 5e-324, 1.922034831393248e-162, 1e-8, 1e-6, 1e-3, 0.3,
                  0.5767440513215262, np.pi / 4]


def _text_is_exact(got: float, exact, tie_eps=TIE_EPS) -> bool:
    """'%.12g' % got is exact's correctly rounded 12-digit value, or exact lies
    within tie_eps eps of a tie between two 12-digit values."""
    if exact == 0:
        return got == 0.0
    e = int(mpmath.floor(mpmath.log10(exact)))
    scaled = exact * mpmath.mpf(10) ** (11 - e)  # 12 digits before the point
    if Decimal(format(got, ".12g")) == Decimal(int(mpmath.nint(scaled))).scaleb(e - 11):
        return True
    tie = abs(scaled - mpmath.floor(scaled) - 0.5) / scaled
    return tie <= tie_eps * np.finfo(float).eps


def test_printed_digits_match_the_exact_values():
    # volume_fraction = cos^4 r and eccentricity = sin r, against 60-digit
    # mpmath values from the same double r, on 6001 angles and the corners:
    # 3001 evenly spaced on [0, pi/4] and 3000 uniform draws, numpy seed 7.
    rng = np.random.default_rng(7)
    angles = [*ORACLE_CORNERS, *np.linspace(0.0, np.pi / 4, 3001).tolist(),
              *rng.uniform(0.0, np.pi / 4, 3000).tolist()]
    with mpmath.workdps(60):
        for r in angles:
            rep = spheroid_report(r)
            x = mpmath.mpf(r)
            assert _text_is_exact(rep.volume_fraction, mpmath.cos(x) ** 4), r
            assert _text_is_exact(rep.eccentricity, mpmath.sin(x)), r


def test_float_power_squares_are_python_pow():
    # shared_state squares sin r with np.float_power, which calls libm pow
    # per value and so has the bits of Python's pow. A numpy whose
    # float_power squares by an array loop fails here: on these 10^6 seeded
    # sines and scaled normals, x * x misses pow's bits.
    rng = np.random.default_rng(1981)
    x = np.concatenate([
        np.sin(rng.uniform(0.0, np.pi, 10**6)),
        np.sin(rng.uniform(0.0, np.pi / 4, 100_000)),
        rng.normal(size=100_000) * 10.0 ** rng.integers(-150, 150, 100_000),
    ])
    assert len(x) >= 10**6
    want = np.array([pow(v, 2.0) for v in x.tolist()])
    assert np.float_power(x, 2.0).tobytes() == want.tobytes()
    assert (x * x != want).any()


class TestSurfaceGrid:
    def test_grid_shapes(self):
        theta, phi, x, y, z = surface_grid(0.3, 7, 9)
        assert [a.shape for a in (theta, phi, x, y, z)] == [(7,), (9,), (7, 9), (7, 9), (7,)]

    def test_asymptotic_pole_points(self):
        _, _, x, y, z = surface_grid(np.pi / 4, 5, 4)
        assert_allclose((x[0], y[0]), 0.0, atol=1e-14)
        assert z[0] == pytest.approx(0.0, abs=1e-14)
        assert_allclose((x[-1], y[-1]), 0.0, atol=1e-12)
        assert z[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_points_sit_at_the_stated_radius(self):
        theta, _, x, y, z = surface_grid(np.pi / 4, 12, 8)
        for i, t in enumerate(theta):
            for xv, yv in zip(x[i], y[i]):
                dist = np.linalg.norm(np.array([xv, yv, z[i]]) - ASYMPTOTIC_CENTER)
                assert dist == pytest.approx(radius_from_center(t), abs=1e-10)

    def test_identity_keeps_unit_sphere(self):
        _, _, x, y, z = surface_grid(0.0, 6, 6)
        assert_allclose(np.sqrt(x**2 + y**2 + z[:, None] ** 2), 1.0, rtol=0, atol=1e-12)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            surface_grid(0.1, 1, 8)

    # A grid side that is not whole fails with its name, never truncated.
    @pytest.mark.parametrize(
        "n_theta, n_phi, name",
        [(2.5, 2, "n_theta"), (3, 2.5, "n_phi"), (float("nan"), 3, "n_theta"),
         (3, float("inf"), "n_phi")],
    )
    def test_rejects_counts_that_are_not_whole(self, n_theta, n_phi, name):
        with pytest.raises(ValueError, match=f"{name} must be a whole number >= 2"):
            surface_grid(0.3, n_theta, n_phi)

    def test_accepts_integral_float_counts(self):
        got, want = surface_grid(0.3, 3.0, 4.0), surface_grid(0.3, 3, 4)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
